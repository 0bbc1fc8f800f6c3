// Package costir compiles the paper's compound data-access patterns
// (Table 2, combined with ⊕ and ⊙ per Section 5) into a flat,
// immutable cost IR — an instruction program over a dense table of
// deduplicated regions — evaluated by an allocation-free stack machine
// (eval.go).
//
// The recursive tree walker in internal/cost reproduces the paper
// faithfully but pays interface dispatch per node and a fresh
// pointer-keyed cache-state map per level per evaluation. Analytical
// cost models earn their keep by being orders of magnitude cheaper
// than simulation, and a query optimizer calls the model once per
// candidate plan, so the model's own evaluation path is a hot path.
// Compilation moves everything shape-dependent out of it:
//
//   - Canonicalization (canon below): bytes-used parameters resolved,
//     nested ⊕ flattened (associativity), ⊙ operands sorted
//     (commutativity — the model's miss sums, footprint shares and
//     state merges are all order-independent), and don't-care fields
//     normalized. Two patterns with the same canonical form compile to
//     the same program, which makes the canonical string a correct
//     interning key for compile caches (see CanonicalKey). The tree is
//     canonicalized by structure: ⊙ operands are ordered by a
//     comparator equivalent to comparing their renderings
//     (canontext.go), and the text itself is built only when a caller
//     asks for it.
//   - Region deduplication: regions are identified by canonical
//     identity — name, item count, item width, and parent chain — not
//     by pointer. Structurally identical *region.Region values that
//     were allocated separately fold into one dense index, so cache
//     state becomes a compact row sorted by that index instead of a
//     map[*region.Region]float64, and a ⊕-fold over two copies of the
//     "same" region no longer maintains divergent states.
//   - Flattening: the pattern tree becomes one linear instruction
//     array (basic-pattern opcodes plus ⊙ bracket markers) and one
//     linear footprint program, both walked without recursion or
//     dispatch on interface types.
//
// A compiled Program is immutable and safe for concurrent use; its
// Evaluate method computes every cache level in a single pass over the
// instruction stream and performs no heap allocation in steady state
// (scratch buffers come from one process-wide pool). internal/cost keeps the
// tree walker as the reference oracle; the property tests there verify
// the two evaluators agree on randomized compound patterns.
package costir

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/pattern"
	"repro/internal/region"
)

// op is an IR opcode. The first six mirror the basic patterns of
// Table 2; the last three bracket concurrent (⊙) groups in the
// instruction stream. Sequential combination (⊕) needs no opcode at
// all: the evaluator threads cache state through consecutive
// instructions, which is exactly Eq. 5.2.
type op uint8

const (
	opSTrav op = iota
	opRSTrav
	opRTrav
	opRRTrav
	opRAcc
	opNest
	opSeq  // canonical-tree node only; never emitted
	opConc // begin ⊙ group: Reg = first footprint slot, N = child count
	opNext // between ⊙ children
	opEnd  // end ⊙ group
)

// instr is one IR instruction. Basic-pattern instructions carry the
// pattern parameters with the region resolved to its dense index;
// opConc carries the footprint-slot range of its children.
type instr struct {
	Op    op
	NoSeq bool
	Reg   int32 // basic: region index; opConc: first footprint slot
	N     int32 // opConc: child count
	U     int64 // bytes used per item (resolved, 0 < U ≤ W)
	A     int64 // repeats (rs/rr_trav), access count (r_acc), per-cursor count (nest)
	M     int64 // nest: sub-region count
	Dir   pattern.Direction
	Order pattern.Order
	Inner pattern.InnerKind
}

// footOp is an opcode of the footprint program: a postorder expression
// evaluated once per cache level before the main pass, filling one
// slot per ⊙ child with its footprint F(P) (Section 5.2).
type footOp uint8

const (
	fOne   footOp = iota // push 1 (plain stream)
	fLines               // push |R|_B
	fRTrav               // push |R|_B if gaps < B else 1 (r_trav's conditional footprint)
	fMax                 // fold N entries with max (⊕)
	fSum                 // fold N entries with sum (⊙)
	fStore               // store top of stack into slot N (keep it on the stack)
)

type footInstr struct {
	Op  footOp
	Reg int32
	N   int32 // fold arity, or slot index for fStore
	U   int64 // fRTrav: resolved bytes-used
}

// RegionInfo is one deduplicated region of a compiled program.
type RegionInfo struct {
	Name string
	N, W int64
	// Parent is the dense index of the parent region (sub-region
	// chains matter for residency inheritance and state merging), or
	// -1 for a root region.
	Parent int32
}

// Size returns ‖R‖ = N·W in bytes.
func (ri RegionInfo) Size() int64 { return ri.N * ri.W }

// Program is a compiled pattern: an immutable flat representation safe
// for concurrent evaluation and for sharing across hardware profiles
// (nothing in it depends on the hierarchy).
type Program struct {
	regions []RegionInfo
	// ents holds one compact-row template per region: its preorder
	// interval (see numberForest), name rank and size (see span).
	ents      []span
	instrs    []instr
	foot      []footInstr
	nSlots    int // total ⊙ children (footprint slots)
	maxDepth  int // deepest ⊙ nesting
	footDepth int // operand-stack bound of the footprint program
	numBasics int
}

// Canonical returns the canonical form of the compiled pattern: a
// deterministic rendering with resolved parameters, sorted ⊙ operands
// and regions identified by name, item count, width and parent chain.
// Two patterns with equal canonical forms are cost-equivalent on every
// hierarchy, which makes the string a correct cache/interning key.
// A program stores no text: each call renders the string afresh from
// the instruction stream, the footprint program and the region table.
func (p *Program) Canonical() string {
	t := p.tree()
	return t.render(t.root)
}

// NumRegions returns the number of deduplicated regions.
func (p *Program) NumRegions() int { return len(p.regions) }

// NumInstructions returns the length of the instruction stream.
func (p *Program) NumInstructions() int { return len(p.instrs) }

// NumBasics returns the number of basic-pattern instructions.
func (p *Program) NumBasics() int { return p.numBasics }

// Regions returns a copy of the deduplicated region table.
func (p *Program) Regions() []RegionInfo {
	return append([]RegionInfo(nil), p.regions...)
}

// Compile canonicalizes and compiles a pattern. The pattern must
// validate (pattern.Validate); the returned program is immutable.
func Compile(p pattern.Pattern) (*Program, error) {
	cz, err := canonicalize(p)
	if err != nil {
		return nil, err
	}
	defer cz.release()
	return cz.compile(), nil
}

// CanonicalKey returns the canonical form of p without building the
// instruction program — the cheap first phase of Compile, for callers
// that only need a cache key to look up an already-compiled program.
func CanonicalKey(p pattern.Pattern) (string, error) {
	cz, err := canonicalize(p)
	if err != nil {
		return "", err
	}
	defer cz.release()
	return cz.render(cz.root), nil
}

// CompileIf canonicalizes p once and compiles it only if keep accepts
// its canonical key, returning a nil program otherwise — for callers
// that deduplicate by canonical form before paying for the instruction
// program, without canonicalizing twice.
func CompileIf(p pattern.Pattern, keep func(key string) bool) (*Program, error) {
	cz, err := canonicalize(p)
	if err != nil {
		return nil, err
	}
	defer cz.release()
	if !keep(cz.render(cz.root)) {
		return nil, nil
	}
	return cz.compile(), nil
}

// compile lowers the canonical tree into a program. The instruction
// streams are sized exactly up front, and the region table for every
// distinct region pointer (an upper bound on distinct identities).
func (cz *canonicalizer) compile() *Program {
	c := compiler{
		t:       &cz.tree,
		regions: make([]RegionInfo, 0, len(cz.regs)),
		regIdx:  cz.regIdx,
		instrs:  make([]instr, 0, cz.nInstrs),
		foot:    make([]footInstr, 0, cz.nFoot),
	}
	c.emit(cz.root)
	return &Program{
		regions:   c.regions,
		ents:      spans(c.regions),
		instrs:    c.instrs,
		foot:      c.foot,
		nSlots:    int(c.nSlots),
		maxDepth:  c.maxDepth,
		footDepth: c.footMax,
		numBasics: c.numBasics,
	}
}

// spans builds the compact-row template of every region: index,
// preorder interval (see numberForest), name rank and size in bytes.
// Name ranks number the distinct names in string order.
func spans(regs []RegionInfo) []span {
	sp := make([]span, len(regs))
	numberForest(regs, sp)
	type named struct {
		name string
		reg  int32
	}
	byName := make([]named, len(regs))
	for i, r := range regs {
		byName[i] = named{r.Name, int32(i)}
	}
	slices.SortFunc(byName, func(a, b named) int { return strings.Compare(a.name, b.name) })
	var rank int32
	for i, r := range byName {
		if i > 0 && r.name != byName[i-1].name {
			rank++
		}
		sp[r.reg].rank = rank
	}
	for i := range sp {
		sp[i].reg = int32(i)
		sp[i].size = float64(regs[i].Size())
	}
	return sp
}

// numberForest numbers the region forest in preorder, setting pre and
// end of sp. Region i's subtree occupies the preorder interval
// [pre, end), so x is an ancestor-or-self of y exactly when
// x.pre <= y.pre < x.end. The table lists every parent before its
// children (regIndex interns the chain root-first), which lets both
// passes run without recursion: subtree sizes accumulate bottom-up in
// reverse index order (held in pre until it is assigned), then each
// region takes the next free position inside its parent's interval.
func numberForest(regs []RegionInfo, sp []span) {
	for i := len(regs) - 1; i >= 0; i-- {
		sp[i].pre++
		if par := regs[i].Parent; par >= 0 {
			sp[par].pre += sp[i].pre
		}
	}
	// end of x serves as x's cursor — the first unassigned position
	// inside its interval — until every child of x is numbered, after
	// which it has advanced to x's true end.
	var roots int32
	for i := range regs {
		at := &roots
		if par := regs[i].Parent; par >= 0 {
			at = &sp[par].end
		}
		size := sp[i].pre
		sp[i].pre = *at
		*at += size
		sp[i].end = sp[i].pre + 1
	}
}

// tree is a canonicalized pattern tree in flat form: nodes, child
// lists and regions live in three arrays and refer to one another by
// index, so building a tree appends to a few arrays instead of
// allocating per node, and the node arrays hold nothing the garbage
// collector has to scan. Nodes are added children first; no node
// carries text — the canonical string is rendered from the tree only
// when a caller asks for it (canontext.go).
type tree struct {
	nodes []cnode
	kids  []int32 // child lists, each contiguous
	regs  []creg
	stack []int32 // children of the compound nodes being built
	root  int32
}

// cnode is one node of a tree. A basic node holds its instruction,
// every parameter resolved and don't-care fields normalized, with Reg
// indexing the tree's regions (the compiler emits the dense index); a ⊕
// (opSeq) or ⊙ (opConc) node holds only its operator and its flattened
// or sorted children, kids[kid : kid+nKids].
type cnode struct {
	in         instr
	kid, nKids int32
}

// creg is a region of a tree: the canonical identity — name, item
// count, width and parent chain — of one region pointer, shared by
// every node that names it.
type creg struct {
	ptr    *region.Region // nil in a tree rebuilt from a program
	name   string
	n, w   int64
	parent int32  // index in the tree's regions, or -1 for a root
	idx    int32  // dense index + 1 once the compiler has interned it
	link   string // rendered link, filled on first render (linkText)
}

// children returns the child list of a compound node.
func (t *tree) children(n *cnode) []int32 { return t.kids[n.kid : n.kid+n.nKids] }

// add appends a node and returns its index.
func (t *tree) add(n cnode) int32 {
	t.nodes = append(t.nodes, n)
	return int32(len(t.nodes) - 1)
}

// compound adds a node of operator o over the children pushed on the
// stack since base, popping them.
func (t *tree) compound(o op, base int) int32 {
	kid := int32(len(t.kids))
	t.kids = append(t.kids, t.stack[base:]...)
	t.stack = t.stack[:base]
	return t.add(cnode{in: instr{Op: o}, kid: kid, nKids: int32(len(t.kids)) - kid})
}

// canonicalizer builds one tree. Beside it, it holds the index of
// every region pointer seen, the compiler's identity table, and the
// lengths of the two instruction streams compile will emit.
type canonicalizer struct {
	tree
	byPtr          map[*region.Region]int32 // region pointer -> index in regs
	regIdx         map[regID]int32          // see compiler.regIdx
	cmp            func(a, b int32) int     // tree.compare, bound once
	nInstrs, nFoot int
	peak           int // most regions any tree built here has held
}

// canonicalizers keeps one spare canonicalizer (a leaky free list, in
// Effective Go's terms): canonicalize takes it if it is there, and
// release puts one back with its arrays and maps emptied but keeping
// their capacity, unless the slot is taken or the tree outgrew
// maxFreeNodes. Unlike a sync.Pool, the slot is neither emptied by
// garbage collection nor split per P, so a warm process compiles a
// pattern with the same allocations every time — the instruction
// program's own arrays and nothing else. One slot serves the compiles
// of one request, which run one after another; a spare per P kept more
// live heap than it saved (measured as peak RSS on plan search).
var canonicalizers = make(chan *canonicalizer, 1)

// maxFreeNodes bounds the trees whose canonicalizers are kept for
// reuse, counting nodes and regions (a 64 MB quick-sort has about
// 13,000 and 4,000), and so the memory the spare holds.
const maxFreeNodes = 1 << 15

// canonicalize validates p and builds its canonical tree on the spare
// canonicalizer, or a new one, which the caller must release.
func canonicalize(p pattern.Pattern) (*canonicalizer, error) {
	if err := pattern.Validate(p); err != nil {
		return nil, err
	}
	var cz *canonicalizer
	select {
	case cz = <-canonicalizers:
	default:
		cz = &canonicalizer{byPtr: map[*region.Region]int32{}, regIdx: map[regID]int32{}}
		cz.cmp = cz.compare
	}
	cz.root = cz.canon(p)
	return cz, nil
}

// release empties cz and keeps it as the spare. Nothing it keeps
// refers into the pattern.
func (cz *canonicalizer) release() {
	if len(cz.nodes)+len(cz.regs) > maxFreeNodes {
		return
	}
	// Clearing a map costs its capacity, which only grows, so a tree
	// far smaller than the largest this canonicalizer has held deletes
	// its own keys instead.
	if 8*len(cz.regs) < cz.peak {
		for i := range cz.regs {
			r := &cz.regs[i]
			delete(cz.byPtr, r.ptr)
			if r.idx > 0 {
				delete(cz.regIdx, cz.identity(r))
			}
		}
	} else {
		clear(cz.byPtr)
		clear(cz.regIdx)
	}
	cz.peak = max(cz.peak, len(cz.regs))
	clear(cz.regs)
	cz.nodes, cz.kids, cz.regs, cz.stack = cz.nodes[:0], cz.kids[:0], cz.regs[:0], cz.stack[:0]
	cz.nInstrs, cz.nFoot = 0, 0
	select {
	case canonicalizers <- cz:
	default:
	}
}

// region returns the index of r's creg, adding it (and, first, its
// parent chain's) on first sight.
func (cz *canonicalizer) region(r *region.Region) int32 {
	if i, ok := cz.byPtr[r]; ok {
		return i
	}
	parent := int32(-1)
	if r.Parent != nil {
		parent = cz.region(r.Parent)
	}
	i := int32(len(cz.regs))
	cz.regs = append(cz.regs, creg{ptr: r, name: r.Name, n: r.N, w: r.W, parent: parent})
	cz.byPtr[r] = i
	return i
}

// canon canonicalizes one subtree and returns its node's index. It
// assumes the pattern validated.
func (cz *canonicalizer) canon(p pattern.Pattern) int32 {
	var in instr
	var r *region.Region
	switch q := p.(type) {
	case pattern.STrav:
		in, r = instr{Op: opSTrav, U: pattern.Used(q.U, q.R), NoSeq: q.NoSeq}, q.R
	case pattern.RSTrav:
		in, r = instr{Op: opRSTrav, U: pattern.Used(q.U, q.R), A: q.Repeats, Dir: q.Dir, NoSeq: q.NoSeq}, q.R
	case pattern.RTrav:
		in, r = instr{Op: opRTrav, U: pattern.Used(q.U, q.R)}, q.R
	case pattern.RRTrav:
		in, r = instr{Op: opRRTrav, U: pattern.Used(q.U, q.R), A: q.Repeats}, q.R
	case pattern.RAcc:
		in, r = instr{Op: opRAcc, U: pattern.Used(q.U, q.R), A: q.Count}, q.R
	case pattern.Nest:
		// Normalize don't-care fields so spurious differences do not
		// split cache entries: Count only matters for an r_acc inner
		// pattern; Order and NoSeq only for an s_trav inner pattern.
		count, order, noSeq := int64(0), q.Order, q.NoSeq
		if q.Inner == pattern.InnerRAcc {
			count = q.Count
		}
		if q.Inner != pattern.InnerSTrav {
			order, noSeq = pattern.OrderRandom, false
		}
		in, r = instr{Op: opNest, U: pattern.Used(q.U, q.R), A: count, M: q.M,
			Order: order, Inner: q.Inner, NoSeq: noSeq}, q.R
	case pattern.Seq:
		// ⊕ is associative: flatten nested Seq nodes. (⊙ is *not*
		// flattened — nested concurrent groups divide the cache
		// hierarchically and singleton/nested groups are preserved so
		// the IR matches the tree walker exactly.) Nested Seq operands
		// splice their children straight into this node, so no
		// intermediate ⊕ node or child list is built.
		base := len(cz.stack)
		cz.flattenSeq(q)
		cz.nFoot++ // fMax
		return cz.compound(opSeq, base)
	case pattern.Conc:
		// ⊙ is commutative: every term of the model (miss sums,
		// footprint shares, max-merged result states) is independent
		// of operand order, so sort children by canonical rendering —
		// compared in place, without rendering either (tree.compare).
		base := len(cz.stack)
		for _, sub := range q {
			k := cz.canon(sub)
			cz.stack = append(cz.stack, k)
		}
		slices.SortStableFunc(cz.stack[base:], cz.cmp)
		cz.nInstrs += len(q) + 1 // opConc, opNext between children, opEnd
		cz.nFoot += len(q) + 1   // fStore per child, fSum
		return cz.compound(opConc, base)
	default:
		panic(fmt.Sprintf("costir: unknown pattern type %T", p))
	}
	// A basic pattern: one instruction and one footprint instruction.
	in.Reg = cz.region(r)
	cz.nInstrs++
	cz.nFoot++
	return cz.add(cnode{in: in})
}

// flattenSeq pushes the canonical operands of q on the stack,
// descending into nested Seq operands in place.
func (cz *canonicalizer) flattenSeq(q pattern.Seq) {
	for _, sub := range q {
		if inner, ok := sub.(pattern.Seq); ok {
			cz.flattenSeq(inner)
			continue
		}
		k := cz.canon(sub)
		cz.stack = append(cz.stack, k)
	}
}

// regID is a region's canonical identity with its parent chain already
// interned: two regions are the same to the cost model exactly when
// their names, geometries and interned parents are.
type regID struct {
	name   string
	n, w   int64
	parent int32
}

// compiler lowers a canonical tree into the two instruction streams.
type compiler struct {
	t       *tree
	regions []RegionInfo
	regIdx  map[regID]int32 // canonical identity -> dense index

	instrs    []instr
	foot      []footInstr
	nSlots    int32
	numBasics int

	depth, maxDepth int
	footSP, footMax int
}

// identity returns the canonical identity of region r, whose parent
// (if any) the compiler has interned.
func (t *tree) identity(r *creg) regID {
	parent := int32(-1)
	if r.parent >= 0 {
		parent = t.regs[r.parent].idx - 1
	}
	return regID{name: r.name, n: r.n, w: r.w, parent: parent}
}

// regIndex interns the tree's region ri (and, first, its ancestor
// chain) into the dense table, deduplicating by canonical identity.
func (c *compiler) regIndex(ri int32) int32 {
	r := &c.t.regs[ri]
	if r.idx > 0 {
		return r.idx - 1
	}
	if r.parent >= 0 {
		c.regIndex(r.parent)
	}
	id := c.t.identity(r)
	idx, ok := c.regIdx[id]
	if !ok {
		idx = int32(len(c.regions))
		c.regions = append(c.regions, RegionInfo{Name: r.name, N: r.n, W: r.w, Parent: id.parent})
		c.regIdx[id] = idx
	}
	r.idx = idx + 1
	return idx
}

func (c *compiler) pushFoot(fi footInstr) {
	c.foot = append(c.foot, fi)
	switch fi.Op {
	case fOne, fLines, fRTrav:
		c.footSP++
		if c.footSP > c.footMax {
			c.footMax = c.footSP
		}
	case fMax, fSum:
		c.footSP -= int(fi.N) - 1
	}
}

func (c *compiler) emit(ni int32) {
	n := &c.t.nodes[ni]
	switch n.in.Op {
	case opSeq:
		// ⊕ emits no instruction: consecutive instructions thread the
		// cache state exactly as Eq. 5.2 folds it. Footprint of ⊕ is
		// the max over children (one runs at a time).
		for _, k := range c.t.children(n) {
			c.emit(k)
		}
		c.pushFoot(footInstr{Op: fMax, N: n.nKids})
	case opConc:
		slot0 := c.nSlots
		c.nSlots += n.nKids
		c.instrs = append(c.instrs, instr{Op: opConc, Reg: slot0, N: n.nKids})
		c.depth++
		if c.depth > c.maxDepth {
			c.maxDepth = c.depth
		}
		for i, k := range c.t.children(n) {
			if i > 0 {
				c.instrs = append(c.instrs, instr{Op: opNext})
			}
			c.emit(k)
			// Record the child's footprint in its slot; the value
			// stays on the stack for the enclosing fold.
			c.pushFoot(footInstr{Op: fStore, N: slot0 + int32(i)})
		}
		c.instrs = append(c.instrs, instr{Op: opEnd})
		c.depth--
		c.pushFoot(footInstr{Op: fSum, N: n.nKids})
	default:
		in := n.in
		in.Reg = c.regIndex(in.Reg)
		c.instrs = append(c.instrs, in)
		c.numBasics++
		switch in.Op {
		case opSTrav:
			c.pushFoot(footInstr{Op: fOne})
		case opRTrav:
			c.pushFoot(footInstr{Op: fRTrav, Reg: in.Reg, U: in.U})
		default:
			c.pushFoot(footInstr{Op: fLines, Reg: in.Reg})
		}
	}
}
