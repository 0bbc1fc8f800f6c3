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
//     interning key for compile caches (see CanonicalKey).
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
	"strconv"
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
	Reg   int32 // basic: region index; opConc: first footprint slot
	N     int32 // opConc: child count
	U     int64 // bytes used per item (resolved, 0 < U ≤ W)
	A     int64 // repeats (rs/rr_trav), access count (r_acc), per-cursor count (nest)
	M     int64 // nest: sub-region count
	Dir   pattern.Direction
	Order pattern.Order
	Inner pattern.InnerKind
	NoSeq bool
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
	canonical string
	regions   []RegionInfo
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
func (p *Program) Canonical() string { return p.canonical }

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
	return cz.root.render(), nil
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
	if !keep(cz.root.render()) {
		return nil, nil
	}
	return cz.compile(), nil
}

// compile lowers the canonical tree into a program. The instruction
// streams are sized exactly up front, and the region tables for every
// distinct region pointer (an upper bound on distinct identities).
func (cz *canonicalizer) compile() *Program {
	nPtr := len(cz.memo)
	c := compiler{
		regions: make([]RegionInfo, 0, nPtr),
		regPtr:  make(map[*region.Region]int32, nPtr),
		regIdx:  make(map[regID]int32, nPtr),
		instrs:  make([]instr, 0, cz.nInstrs),
		foot:    make([]footInstr, 0, cz.nFoot),
	}
	c.emit(cz.root)
	return &Program{
		canonical: cz.root.render(),
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
	byName := make([]int32, len(regs))
	for i := range byName {
		byName[i] = int32(i)
	}
	slices.SortFunc(byName, func(a, b int32) int { return strings.Compare(regs[a].Name, regs[b].Name) })
	var rank int32
	for i, r := range byName {
		if i > 0 && regs[r].Name != regs[byName[i-1]].Name {
			rank++
		}
		sp[r].rank = rank
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

// cnode is one node of the canonicalized pattern tree: basic patterns
// with resolved parameters, or ⊕/⊙ nodes with flattened/sorted
// children. A basic node's key is its canonical rendering. A compound
// node's key stays empty until something must compare or return it
// (a ⊙ parent sorting its operands, or the root); size is the length
// of the rendering either way, so it can be written in one pass.
type cnode struct {
	op    op
	reg   *region.Region
	u     int64
	a     int64
	m     int64
	dir   pattern.Direction
	order pattern.Order
	inner pattern.InnerKind
	noSeq bool
	kids  []*cnode
	key   string
	size  int
}

// canonicalize validates p and builds its canonical tree.
func canonicalize(p pattern.Pattern) (*canonicalizer, error) {
	if err := pattern.Validate(p); err != nil {
		return nil, err
	}
	cz := &canonicalizer{memo: map[*region.Region]string{}}
	cz.root = cz.canon(p)
	return cz, nil
}

// canonicalizer builds one canonical tree. Beside the root it holds
// what the nodes share — rendered region identities per pointer, a
// scratch buffer for rendering keys, a slab the nodes are carved from —
// and the lengths of the two instruction streams compile will emit.
type canonicalizer struct {
	root           *cnode
	memo           map[*region.Region]string
	buf            []byte
	slab           []cnode
	slabSize       int
	nInstrs, nFoot int
}

// node carves a node from the slab. Slabs double from 4 up to 256
// nodes, so small patterns do not pay for a large one.
func (cz *canonicalizer) node() *cnode {
	if len(cz.slab) == 0 {
		cz.slabSize = min(max(2*cz.slabSize, 4), 256)
		cz.slab = make([]cnode, cz.slabSize)
	}
	n := &cz.slab[0]
	cz.slab = cz.slab[1:]
	return n
}

// regKey renders a region's canonical identity: quoted name, item
// count, width, and (recursively) the parent chain. Two regions with
// equal keys are indistinguishable to the cost model.
func (cz *canonicalizer) regKey(r *region.Region) string {
	if k, ok := cz.memo[r]; ok {
		return k
	}
	var parent string
	if r.Parent != nil {
		parent = cz.regKey(r.Parent)
	}
	b := strconv.AppendQuote(cz.buf[:0], r.Name)
	b = append(b, '!')
	b = strconv.AppendInt(b, r.N, 10)
	b = append(b, '!')
	b = strconv.AppendInt(b, r.W, 10)
	if r.Parent != nil {
		b = append(b, '<')
		b = append(b, parent...)
	}
	cz.buf = b
	k := string(b)
	cz.memo[r] = k
	return k
}

func boolKey(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// canon canonicalizes one subtree. It assumes the pattern validated.
func (cz *canonicalizer) canon(p pattern.Pattern) *cnode {
	n := cz.node()
	switch q := p.(type) {
	case pattern.STrav:
		u := pattern.Used(q.U, q.R)
		*n = cnode{op: opSTrav, reg: q.R, u: u, noSeq: q.NoSeq,
			key: "st(" + cz.regKey(q.R) + ";" + strconv.FormatInt(u, 10) + ";" + boolKey(q.NoSeq) + ")"}
	case pattern.RSTrav:
		u := pattern.Used(q.U, q.R)
		*n = cnode{op: opRSTrav, reg: q.R, u: u, a: q.Repeats, dir: q.Dir, noSeq: q.NoSeq,
			key: "rst(" + cz.regKey(q.R) + ";" + strconv.FormatInt(u, 10) + ";" +
				strconv.FormatInt(q.Repeats, 10) + ";" + q.Dir.String() + ";" + boolKey(q.NoSeq) + ")"}
	case pattern.RTrav:
		u := pattern.Used(q.U, q.R)
		*n = cnode{op: opRTrav, reg: q.R, u: u,
			key: "rt(" + cz.regKey(q.R) + ";" + strconv.FormatInt(u, 10) + ")"}
	case pattern.RRTrav:
		u := pattern.Used(q.U, q.R)
		*n = cnode{op: opRRTrav, reg: q.R, u: u, a: q.Repeats,
			key: "rrt(" + cz.regKey(q.R) + ";" + strconv.FormatInt(u, 10) + ";" +
				strconv.FormatInt(q.Repeats, 10) + ")"}
	case pattern.RAcc:
		u := pattern.Used(q.U, q.R)
		*n = cnode{op: opRAcc, reg: q.R, u: u, a: q.Count,
			key: "ra(" + cz.regKey(q.R) + ";" + strconv.FormatInt(u, 10) + ";" +
				strconv.FormatInt(q.Count, 10) + ")"}
	case pattern.Nest:
		u := pattern.Used(q.U, q.R)
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
		*n = cnode{op: opNest, reg: q.R, u: u, a: count, m: q.M, order: order, inner: q.Inner, noSeq: noSeq,
			key: "nst(" + cz.regKey(q.R) + ";" + strconv.FormatInt(u, 10) + ";" +
				strconv.FormatInt(q.M, 10) + ";" + q.Inner.String() + ";" +
				strconv.FormatInt(count, 10) + ";" + order.String() + ";" + boolKey(noSeq) + ")"}
	case pattern.Seq:
		// ⊕ is associative: flatten nested Seq nodes. (⊙ is *not*
		// flattened — nested concurrent groups divide the cache
		// hierarchically and singleton/nested groups are preserved so
		// the IR matches the tree walker exactly.) Nested Seq operands
		// splice their children straight into this node, so no
		// intermediate ⊕ node or child list is built.
		*n = cnode{op: opSeq}
		cz.flattenSeq(n, q)
		n.size = compoundSize(n.kids)
		cz.nFoot++ // fMax
		return n
	case pattern.Conc:
		// ⊙ is commutative: every term of the model (miss sums,
		// footprint shares, max-merged result states) is independent
		// of operand order, so sort children by canonical key.
		*n = cnode{op: opConc, kids: make([]*cnode, 0, len(q))}
		for _, sub := range q {
			k := cz.canon(sub)
			k.render()
			n.kids = append(n.kids, k)
		}
		slices.SortStableFunc(n.kids, func(a, b *cnode) int { return strings.Compare(a.key, b.key) })
		n.size = compoundSize(n.kids)
		cz.nInstrs += len(n.kids) + 1 // opConc, opNext between children, opEnd
		cz.nFoot += len(n.kids) + 1   // fStore per child, fSum
		return n
	default:
		panic(fmt.Sprintf("costir: unknown pattern type %T", p))
	}
	// A basic pattern: one instruction and one footprint instruction.
	n.size = len(n.key)
	cz.nInstrs++
	cz.nFoot++
	return n
}

// flattenSeq appends the canonical operands of q to n's children,
// descending into nested Seq operands in place.
func (cz *canonicalizer) flattenSeq(n *cnode, q pattern.Seq) {
	for _, sub := range q {
		if inner, ok := sub.(pattern.Seq); ok {
			cz.flattenSeq(n, inner)
			continue
		}
		n.kids = append(n.kids, cz.canon(sub))
	}
}

// compoundSize is the rendered length of a compound node over kids:
// an operator symbol, parentheses, the children and their separators.
func compoundSize(kids []*cnode) int {
	size := len("+()") + len(kids) - 1
	for _, k := range kids {
		size += k.size
	}
	return size
}

// render returns the node's canonical rendering, writing it (once) in
// a single pass over the subtree: a compound node renders as
// sym(child,child,...) with sym "+" for ⊕ and "*" for ⊙.
func (n *cnode) render() string {
	if n.key == "" {
		var b strings.Builder
		b.Grow(n.size)
		n.writeKey(&b)
		n.key = b.String()
	}
	return n.key
}

func (n *cnode) writeKey(b *strings.Builder) {
	if n.key != "" {
		b.WriteString(n.key)
		return
	}
	if n.op == opSeq {
		b.WriteString("+(")
	} else {
		b.WriteString("*(")
	}
	for i, k := range n.kids {
		if i > 0 {
			b.WriteByte(',')
		}
		k.writeKey(b)
	}
	b.WriteByte(')')
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
	regions []RegionInfo
	regPtr  map[*region.Region]int32 // region pointer -> dense index
	regIdx  map[regID]int32          // canonical identity -> dense index

	instrs    []instr
	foot      []footInstr
	nSlots    int32
	numBasics int

	depth, maxDepth int
	footSP, footMax int
}

// regIndex interns a region (and, first, its ancestor chain) into the
// dense table, deduplicating by canonical identity.
func (c *compiler) regIndex(r *region.Region) int32 {
	if idx, ok := c.regPtr[r]; ok {
		return idx
	}
	parent := int32(-1)
	if r.Parent != nil {
		parent = c.regIndex(r.Parent)
	}
	id := regID{name: r.Name, n: r.N, w: r.W, parent: parent}
	idx, ok := c.regIdx[id]
	if !ok {
		idx = int32(len(c.regions))
		c.regions = append(c.regions, RegionInfo{Name: r.Name, N: r.N, W: r.W, Parent: parent})
		c.regIdx[id] = idx
	}
	c.regPtr[r] = idx
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

func (c *compiler) emit(n *cnode) {
	switch n.op {
	case opSeq:
		// ⊕ emits no instruction: consecutive instructions thread the
		// cache state exactly as Eq. 5.2 folds it. Footprint of ⊕ is
		// the max over children (one runs at a time).
		for _, k := range n.kids {
			c.emit(k)
		}
		c.pushFoot(footInstr{Op: fMax, N: int32(len(n.kids))})
	case opConc:
		slot0 := c.nSlots
		c.nSlots += int32(len(n.kids))
		c.instrs = append(c.instrs, instr{Op: opConc, Reg: slot0, N: int32(len(n.kids))})
		c.depth++
		if c.depth > c.maxDepth {
			c.maxDepth = c.depth
		}
		for i, k := range n.kids {
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
		c.pushFoot(footInstr{Op: fSum, N: int32(len(n.kids))})
	default:
		ri := c.regIndex(n.reg)
		c.instrs = append(c.instrs, instr{
			Op: n.op, Reg: ri, U: n.u, A: n.a, M: n.m,
			Dir: n.dir, Order: n.order, Inner: n.inner, NoSeq: n.noSeq,
		})
		c.numBasics++
		switch n.op {
		case opSTrav:
			c.pushFoot(footInstr{Op: fOne})
		case opRTrav:
			c.pushFoot(footInstr{Op: fRTrav, Reg: ri, U: n.u})
		default:
			c.pushFoot(footInstr{Op: fLines, Reg: ri})
		}
	}
}
