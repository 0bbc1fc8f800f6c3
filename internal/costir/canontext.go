package costir

import (
	"bytes"
	"cmp"
	"strconv"
	"strings"
)

// This file holds the canonical text of a pattern: the string that
// Program.Canonical and CanonicalKey return and that ⊙ operands are
// sorted by. Compilation never builds it. A basic pattern renders as
//
//	op(link<link<...<link;u;...)
//
// with op one of st, rst, rt, rrt, ra, nst, one link per region of the
// parent chain (innermost first), each link being the region's quoted
// name, item count and width as "name"!N!W, and the basic's resolved
// parameters after the last link (appendFields). A ⊕ node renders as
// +(child,child,...), a ⊙ node as *(child,...).

// opOpen is the opening of each basic opcode's rendering.
var opOpen = [...]string{
	opSTrav:  "st(",
	opRSTrav: "rst(",
	opRTrav:  "rt(",
	opRRTrav: "rrt(",
	opRAcc:   "ra(",
	opNest:   "nst(",
}

// compound reports whether op is a ⊕ or ⊙ node of the canonical tree.
func (o op) compound() bool { return o == opSeq || o == opConc }

// symbol is the operator character a compound node renders with.
func symbol(o op) byte {
	if o == opSeq {
		return '+'
	}
	return '*'
}

// appendLink appends one link of a region chain: the region's quoted
// name, item count and width, then '<' if its parent's link follows or
// ';' where the basic's parameters start.
func appendLink(b []byte, r *creg) []byte {
	b = appendQuoted(b, r.name)
	b = append(b, '!')
	b = strconv.AppendInt(b, r.n, 10)
	b = append(b, '!')
	b = strconv.AppendInt(b, r.w, 10)
	if r.parent >= 0 {
		return append(b, '<')
	}
	return append(b, ';')
}

// appendQuoted appends strconv.Quote(s), copying s between quotes
// when it is printable ASCII that needs no escape.
func appendQuoted(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFields appends what follows a basic's region chain: its
// resolved parameters, ';'-separated, and the closing parenthesis.
func appendFields(b []byte, in *instr) []byte {
	b = strconv.AppendInt(b, in.U, 10)
	switch in.Op {
	case opRSTrav:
		b = append(b, ';')
		b = strconv.AppendInt(b, in.A, 10)
		b = append(b, ';')
		b = append(b, in.Dir.String()...)
	case opRTrav:
		return append(b, ')')
	case opRRTrav, opRAcc:
		b = append(b, ';')
		b = strconv.AppendInt(b, in.A, 10)
		return append(b, ')')
	case opNest:
		b = append(b, ';')
		b = strconv.AppendInt(b, in.M, 10)
		b = append(b, ';')
		b = append(b, in.Inner.String()...)
		b = append(b, ';')
		b = strconv.AppendInt(b, in.A, 10)
		b = append(b, ';')
		b = append(b, in.Order.String()...)
	}
	// st, rst and nst end with the sequential-access flag.
	if in.NoSeq {
		return append(b, ";1)"...)
	}
	return append(b, ";0)"...)
}

// render returns the canonical rendering of node n, sized exactly by a
// first pass so the string is written in place.
func (t *tree) render(n int32) string {
	var b strings.Builder
	b.Grow(t.textLen(n))
	t.write(&b, n)
	return b.String()
}

// textLen returns the length of node ni's rendering.
func (t *tree) textLen(ni int32) int {
	n := &t.nodes[ni]
	if n.in.Op.compound() {
		size := len("+()") + int(n.nKids) - 1
		for _, k := range t.children(n) {
			size += t.textLen(k)
		}
		return size
	}
	size := len(opOpen[n.in.Op])
	for r := n.in.Reg; r >= 0; r = t.regs[r].parent {
		size += len(t.linkText(r))
	}
	var f [64]byte
	return size + len(appendFields(f[:0], &n.in))
}

// write writes node ni's rendering to b.
func (t *tree) write(b *strings.Builder, ni int32) {
	n := &t.nodes[ni]
	if n.in.Op.compound() {
		b.WriteByte(symbol(n.in.Op))
		b.WriteByte('(')
		for i, k := range t.children(n) {
			if i > 0 {
				b.WriteByte(',')
			}
			t.write(b, k)
		}
		b.WriteByte(')')
		return
	}
	b.WriteString(opOpen[n.in.Op])
	for r := n.in.Reg; r >= 0; r = t.regs[r].parent {
		b.WriteString(t.linkText(r))
	}
	var f [64]byte
	b.Write(appendFields(f[:0], &n.in))
}

// linkText returns region ri's link, rendered once per tree and then
// copied by every basic whose chain passes through it.
func (t *tree) linkText(ri int32) string {
	r := &t.regs[ri]
	if r.link == "" {
		var buf [64]byte
		r.link = string(appendLink(buf[:0], r))
	}
	return r.link
}

// compare returns strings.Compare of the renderings of nodes a and b
// without rendering either. It rests on one property of the canonical
// grammar: no rendering is a proper prefix of another. (Quoted names
// end at their closing quote; a link's number fields end at '!', '<'
// or ';', none of them a digit; a basic's parameters and every
// compound end at their balancing ')'.) So wherever two renderings
// first differ, they differ inside the first pair of corresponding
// parts — operator, child, link or parameter list — that are not
// equal, and comparing those parts alone gives the sign:
//
//   - "*(" and "+(" precede every basic's lowercase opcode;
//   - children compare pairwise, and when one child list is a prefix of
//     the other, the shorter closes with ')' where the longer goes on
//     with ',', so it sorts first;
//   - basic openings ("st(", "rst(", ...) are not prefixes of one
//     another, then links compare one by one — a shared region ends
//     the chain walk early, since the rest is the same text — and
//     finally the parameter lists.
//
// Links and parameter lists are rendered into stack buffers, so
// comparing allocates nothing.
func (t *tree) compare(ai, bi int32) int {
	if ai == bi {
		return 0
	}
	a, b := &t.nodes[ai], &t.nodes[bi]
	ac, bc := a.in.Op.compound(), b.in.Op.compound()
	switch {
	case ac && bc:
		if a.in.Op != b.in.Op {
			return cmp.Compare(symbol(a.in.Op), symbol(b.in.Op))
		}
		ak, bk := t.children(a), t.children(b)
		for i := range min(len(ak), len(bk)) {
			if c := t.compare(ak[i], bk[i]); c != 0 {
				return c
			}
		}
		return cmp.Compare(len(ak), len(bk))
	case ac:
		return -1
	case bc:
		return 1
	}
	if a.in.Op != b.in.Op {
		return strings.Compare(opOpen[a.in.Op], opOpen[b.in.Op])
	}
	for ra, rb := a.in.Reg, b.in.Reg; ra != rb; ra, rb = t.regs[ra].parent, t.regs[rb].parent {
		// Equal links end alike, so both chains go on or both end.
		var la, lb [64]byte
		if c := bytes.Compare(appendLink(la[:0], &t.regs[ra]), appendLink(lb[:0], &t.regs[rb])); c != 0 {
			return c
		}
	}
	var fa, fb [64]byte
	return bytes.Compare(appendFields(fa[:0], &a.in), appendFields(fb[:0], &b.in))
}

// tree rebuilds the canonical tree of a compiled program: regions from
// the region table, basic nodes from the instruction stream in order,
// and ⊕/⊙ nodes from the footprint program — a postorder walk of the
// tree in which one instruction per basic pushes a value and each fMax
// (⊕) or fSum (⊙) folds its node's children.
func (p *Program) tree() *tree {
	t := &tree{regs: make([]creg, len(p.regions))}
	for i, ri := range p.regions {
		t.regs[i] = creg{name: ri.Name, n: ri.N, w: ri.W, parent: ri.Parent}
	}
	next := 0 // next instruction to scan for a basic
	for _, f := range p.foot {
		var k int32
		switch f.Op {
		case fStore:
			continue
		case fMax:
			k = t.compound(opSeq, len(t.stack)-int(f.N))
		case fSum:
			k = t.compound(opConc, len(t.stack)-int(f.N))
		default:
			for p.instrs[next].Op >= opSeq { // ⊙ brackets
				next++
			}
			k = t.add(cnode{in: p.instrs[next]})
			next++
		}
		t.stack = append(t.stack, k)
	}
	t.root = t.stack[0]
	return t
}
