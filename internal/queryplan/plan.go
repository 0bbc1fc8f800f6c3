package queryplan

import (
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/pattern"
	"repro/internal/region"
)

// OpKind discriminates physical plan nodes.
type OpKind int

const (
	// OpScan reads a base relation, applying the query's filter and
	// projection for that relation (materializing the result if either
	// narrows it).
	OpScan OpKind = iota
	// OpJoin joins its two children with Algorithm.
	OpJoin
	// OpAggregate groups its child into Groups result groups.
	OpAggregate
	// OpDistinct eliminates duplicates down to Groups rows.
	OpDistinct
	// OpSort sorts its child's output in place.
	OpSort
)

// Plan is one physical plan: a tree of operators with algorithm choices
// made and output estimates (cardinality, width, sortedness) filled in
// by the enumerator. Plans share subtrees; nodes are immutable after
// enumeration.
type Plan struct {
	Kind      OpKind
	Algorithm Algorithm
	// Fanout is the partition count of a partitioned hash join.
	Fanout int64
	// Rel is the base relation of an OpScan leaf.
	Rel Relation
	// Filter is the scan's selectivity (1 = none); Proj its bytes-used
	// projection (0 = full width).
	Filter float64
	Proj   int64
	// Groups is the target cardinality of OpAggregate / OpDistinct.
	Groups int64
	// Children are the operator inputs (two for OpJoin, one for
	// OpAggregate / OpDistinct / OpSort, none for OpScan).
	Children []*Plan
	// Out is the operator's estimated output: the relation downstream
	// operators consume.
	Out Relation
}

// Signature renders the plan's physical shape as a compact,
// deterministic string — the identity golden files and plan rankings
// key on: join order and algorithms in infix form, unary operators as
// prefixes.
//
//	sort(hashagg((σ(C) hj O) smj L))
func (p *Plan) Signature() string {
	var b strings.Builder
	p.signature(&b)
	return b.String()
}

func (p *Plan) signature(b *strings.Builder) {
	if p.Kind == OpScan {
		if p.Filter < 1 || p.Proj > 0 {
			b.WriteString("σ(")
			b.WriteString(p.Rel.Name)
			b.WriteString(")")
		} else {
			b.WriteString(p.Rel.Name)
		}
		return
	}
	if p.Kind == OpJoin {
		b.WriteString("(")
		p.Children[0].signature(b)
		b.WriteString(" ")
		p.code(b)
		b.WriteString(" ")
		p.Children[1].signature(b)
		b.WriteString(")")
		return
	}
	p.code(b)
	b.WriteString("(")
	p.Children[0].signature(b)
	b.WriteString(")")
}

// code writes the operator's signature code from the operator table;
// a partitioned hash join appends its fan-out.
func (p *Plan) code(b *strings.Builder) {
	if i, err := operatorOf(p.Kind, p.Algorithm); err == nil {
		b.WriteString(operators[i].code)
	} else {
		b.WriteString(string(p.Algorithm))
	}
	if p.Algorithm == PartitionedHashJoin {
		b.WriteString(strconv.FormatInt(p.Fanout, 10))
	}
}

// Lower composes the plan into one compound pattern plus its estimated
// CPU time: every operator contributes the Table-2 steps and CPU terms
// the operator table (ops.go) defines for its algorithm, over its input
// and output regions, and operators are sequenced with ⊕ in execution
// order (full materialization), so Eq. 5.2 threads cache state from
// each operator into the next. An unfiltered scan contributes no
// pattern of its own unless it is the whole plan — its consumer reads
// the base region directly.
//
// pruneBytes bounds quick-sort recursion exactly as in
// engine.QuickSortPattern (callers pass the smallest cache capacity).
func (p *Plan) Lower(cpu CPUCosts, pruneBytes int64) (pattern.Pattern, float64, error) {
	l := lowerer{cpu: cpu, prune: pruneBytes}
	out, err := l.lower(p)
	if err != nil {
		return nil, 0, err
	}
	if len(l.steps) == 0 {
		// A bare unfiltered scan: the plan is the traversal itself.
		l.steps = append(l.steps, engine.ScanPattern(out, 0))
	}
	return sequence(l.steps), l.cpuNS, nil
}

// sequence composes steps with ⊕; a single step is its own pattern.
func sequence(steps []pattern.Pattern) pattern.Pattern {
	if len(steps) == 1 {
		return steps[0]
	}
	return pattern.Seq(steps)
}

// lowerer accumulates the ⊕ step list and CPU estimate of one plan.
type lowerer struct {
	cpu   CPUCosts
	prune int64
	steps []pattern.Pattern
	cpuNS float64
}

// lower emits the steps of p's subtree and returns the region holding
// p's (materialized) output.
func (l *lowerer) lower(p *Plan) (*region.Region, error) {
	var r [numSlots]*region.Region
	if p.Kind == OpScan {
		r[slotLeft] = p.Rel.Region()
		if p.Filter >= 1 && p.Proj <= 0 {
			return r[slotLeft], nil // consumed in place, no materialization
		}
		r[slotOut] = p.Out.Region()
		l.run(scanStep, &r, p.Proj)
		return r[slotOut], nil
	}
	i, err := operatorOf(p.Kind, p.Algorithm)
	if err != nil {
		return nil, err
	}
	op := &operators[i]
	var sorted [numSlots]bool
	for c, child := range p.Children {
		if r[c], err = l.lower(child); err != nil {
			return nil, err
		}
		sorted[c] = child.Out.Sorted
	}
	if op.inPlace {
		r[slotOut] = r[slotLeft]
	} else {
		r[slotOut] = p.Out.Region()
	}
	if p.Kind == OpJoin {
		fillBuildProbe(&r, r[slotLeft].N, r[slotRight].N)
	}
	for _, s := range op.steps {
		if s.unlessSorted && sorted[s.args[0]] {
			continue
		}
		l.run(s, &r, p.Fanout)
	}
	return r[slotOut], nil
}

// run emits one step over the operator's slot regions r and adds its
// CPU term.
func (l *lowerer) run(s step, r *[numSlots]*region.Region, m int64) {
	var args [3]*region.Region
	var n [3]float64
	for i := 0; i < s.kind.arity(); i++ {
		args[i] = r[s.args[i]]
		n[i] = float64(args[i].N)
	}
	l.steps = s.kind.emit(l.steps, args, m, l.prune)
	l.cpuNS += s.kind.cpu(l.cpu, n)
}
