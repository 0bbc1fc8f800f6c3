package cachemodel

import (
	"fmt"
	"math"

	"repro/internal/pattern"
	"repro/internal/region"
)

// This file is the entry point of the analytical backend. Grid sweeps
// (internal/sweep) price hundreds of patterns on the same hierarchy;
// pricing each one anew would re-validate, re-flatten, and — far
// more expensively — re-integrate the same distance masses over and
// over: the recursive operator patterns (quick-sort's 2^k equally sized
// half-segments, radix passes, B-tree levels) generate exponentially
// many atoms that share a handful of distinct (geometry, mass, rate,
// peers) integration inputs per level.
//
// A Pricer therefore (a) hoists validation and flattening into Prepare,
// (b) reuses every analysis buffer across patterns, and (c) memoizes
// the pure integration kernel expectedMissProb by the exact values of
// its inputs. A memo hit returns the very float64 a fresh computation
// would produce, so Pricer results are bit-identical to a fresh,
// unmemoized analysis — pinned by TestPricerMatchesPrice — while a warm
// pricer runs the full validation grid several times faster with zero
// allocations per pattern.

// PreparedPattern is a validated, flattened pattern, reusable across
// any number of Pricer invocations and hierarchies.
type PreparedPattern struct {
	phases []phase
}

// Prepare validates and flattens p once. The returned PreparedPattern
// is immutable and safe for concurrent use.
func Prepare(p pattern.Pattern) (*PreparedPattern, error) {
	if err := pattern.Validate(p); err != nil {
		return nil, fmt.Errorf("cachemodel: %w", err)
	}
	return &PreparedPattern{phases: flatten(p)}, nil
}

// Pricer prices prepared patterns on one model, reusing its analysis
// buffers and integration memo across calls. It is NOT safe for
// concurrent use; grid sweeps give each worker its own Pricer.
type Pricer struct {
	m  *Model
	az analyzer
}

// NewPricer returns a batch pricer bound to the model.
func (m *Model) NewPricer() *Pricer {
	return &Pricer{m: m, az: analyzer{
		memo:     make(map[memoKey]float64),
		profMemo: make(map[profMemoKey]atomProfile),
		memoCap:  memoCap,
	}}
}

// Price prices a prepared pattern, allocating a fresh Result.
func (pr *Pricer) Price(prep *PreparedPattern) *Result {
	res := &Result{}
	pr.PriceInto(prep, res)
	return res
}

// PriceInto prices a prepared pattern into res, reusing res's level
// slice. In steady state (warm buffers, warm memo) it performs no heap
// allocation. Results are bit-identical to a fresh, unmemoized
// analysis of the same pattern.
func (pr *Pricer) PriceInto(prep *PreparedPattern, res *Result) {
	pr.m.priceInto(&pr.az, prep, res)
}

// stackEntry is one resident root region on the symbolic region stack.
type stackEntry struct {
	key   *region.Region
	lines float64
}

// analyzer holds the scratch state of one level analysis. A Pricer's
// analyzer persists, so the buffers and the integration memo reach a
// steady state. The zero value memoizes nothing (memoCap 0): every
// lookup misses and nothing is stored, which makes it the unmemoized
// reference the tests check the Pricer against.
type analyzer struct {
	level    int32 // hierarchy level index (memo key component)
	memo     map[memoKey]float64
	profMemo map[profMemoKey]atomProfile
	memoCap  int // entries each memo may hold
	profiles []atomProfile
	peers    []peer
	masses   []mass
	stack    []stackEntry
}

// profMemoKey keys one atom's profile on one hierarchy level.
type profMemoKey struct {
	level int32
	pk    profileKey
}

// profileFor derives one atom's per-level profile through the profile
// memo. Keys carry every profileAtom input (level geometry via the
// level index, atom parameters via the value key), so a hit returns
// the bit-identical profile a fresh derivation would.
func (az *analyzer) profileFor(g geom, a *atom) atomProfile {
	k := profMemoKey{level: az.level, pk: a.pk}
	if pr, ok := az.profMemo[k]; ok {
		return pr
	}
	pr := profileAtom(g, a.p)
	if len(az.profMemo) < az.memoCap {
		az.profMemo[k] = pr
	}
	return pr
}

// memoMaxPeers bounds the ⊙-sibling count a memo key can carry; phases
// with more peers (none of the engine's operators produce them) bypass
// the memo.
const memoMaxPeers = 3

// memoCap bounds a Pricer's memo sizes; a full validation grid needs a
// few hundred entries, so the cap only guards against degenerate
// inputs.
const memoCap = 1 << 16

// peerKey is one ⊙-sibling's contribution to a memo key.
type peerKey struct {
	footprint float64
	rate      float64
}

// memoKey captures every input of expectedMissProb except the mass
// count and classification, which scale the result outside the
// integral. Keys compare by exact float64 value: equal keys yield
// bit-identical integrals.
type memoKey struct {
	level   int32
	kind    distKind
	np      int32
	lo      float64
	hi      float64
	sat     float64
	gapRate float64
	rate    float64
	peers   [memoMaxPeers]peerKey
}

// missFor integrates one distance mass through the memo. Cold masses
// are unconditional misses; oversized peer sets and NaN inputs (map
// keys would never match again) bypass the memo.
func (az *analyzer) missFor(g geom, ms mass, ownRate float64, peers []peer) float64 {
	if ms.kind == dCold {
		return 1
	}
	if len(peers) > memoMaxPeers {
		return expectedMissProb(g, ms, ownRate, peers)
	}
	k := memoKey{
		level: az.level, kind: ms.kind, np: int32(len(peers)),
		lo: ms.lo, hi: ms.hi, sat: ms.sat, gapRate: ms.gapRate, rate: ownRate,
	}
	for i, p := range peers {
		k.peers[i] = peerKey{footprint: p.footprint, rate: p.rate}
	}
	if math.IsNaN(k.lo) || math.IsNaN(k.hi) || math.IsNaN(k.sat) || math.IsNaN(k.gapRate) || math.IsNaN(k.rate) {
		return expectedMissProb(g, ms, ownRate, peers)
	}
	if v, ok := az.memo[k]; ok {
		return v
	}
	v := expectedMissProb(g, ms, ownRate, peers)
	if len(az.memo) < az.memoCap {
		az.memo[k] = v
	}
	return v
}

// analyzeLevel prices all phases on one level, threading the symbolic
// region stack across phases. All scratch lives in the analyzer, so a
// persistent analyzer performs no allocation in steady state.
func (az *analyzer) analyzeLevel(g geom, phases []phase) levelResult {
	var lr levelResult
	stack := az.stack[:0]

	for pi := range phases {
		ph := &phases[pi]
		profiles := az.profiles[:0]
		for ai := range ph.atoms {
			profiles = append(profiles, az.profileFor(g, &ph.atoms[ai]))
		}
		az.profiles = profiles
		// Distance inflation peers: every other atom of the phase.
		for i := range profiles {
			peers := az.peers[:0]
			for j := range profiles {
				if j != i && profiles[j].accesses > 0 {
					peers = append(peers, peer{footprint: profiles[j].footprint, rate: profiles[j].rate})
				}
			}
			az.peers = peers
			pr := &profiles[i]
			lr.accesses += pr.accesses

			// First touches: revisits of an earlier phase's leftovers, or
			// cold misses. Stack distances of sibling atoms within this
			// phase are handled by inflation, not by stack position.
			masses := az.masses[:0]
			root := ph.atoms[i].root
			depth := 0.0
			found := -1
			for k := len(stack) - 1; k >= 0; k-- {
				if stack[k].key == root {
					found = k
					break
				}
				depth += stack[k].lines
			}
			first := pr.footprint
			if found >= 0 && first > 0 {
				prev := stack[found].lines
				warm := math.Min(first, prev)
				if warm > 0 {
					masses = append(masses, mass{kind: dUniform, lo: depth, hi: depth + prev, count: warm, seq: pr.seq})
				}
				if cold := first - warm; cold > 0 {
					masses = append(masses, mass{kind: dCold, count: cold, seq: pr.seq})
				}
			} else if first > 0 {
				masses = append(masses, mass{kind: dCold, count: first, seq: pr.seq})
			}
			masses = append(masses, pr.revisits()...)
			az.masses = masses

			for _, ms := range masses {
				miss := ms.count * az.missFor(g, ms, pr.rate, peers)
				if ms.seq {
					lr.seqMiss += miss
				} else {
					lr.rndMiss += miss
				}
			}

			// Update the stack: root moves to the top carrying the larger
			// of its previous credit and this atom's footprint.
			lines := pr.footprint
			if found >= 0 {
				if stack[found].lines > lines {
					lines = stack[found].lines
				}
				stack = append(stack[:found], stack[found+1:]...)
			}
			stack = append(stack, stackEntry{key: root, lines: lines})
		}
	}
	az.stack = stack[:0]
	return lr
}
