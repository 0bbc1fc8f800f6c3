package cost

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/pattern"
)

// Explain produces an itemized cost breakdown of a pattern: for every
// node of the pattern tree, its per-level misses and memory time, with
// cache state threaded exactly as in Evaluate. Optimizer developers use
// it to see *where* a plan's memory cost comes from. A ⊙ child and
// everything under it is a single row.

// ExplainNode is one pattern-tree node's contribution.
type ExplainNode struct {
	// Pattern is the node's rendering.
	Pattern string
	// Depth is the tree depth (0 = root).
	Depth int
	// Kind is "basic", "seq" or "conc".
	Kind string
	// PerLevel holds the node's misses per hierarchy level (for
	// compounds: the sum over children).
	PerLevel []Misses
	// TimeNS is the node's memory time (Eq. 3.1 over PerLevel).
	TimeNS float64
}

// Explanation is the itemized breakdown plus the totals.
type Explanation struct {
	Model *Model
	Nodes []ExplainNode
}

// Total returns the root node (whole-pattern totals).
func (e *Explanation) Total() ExplainNode { return e.Nodes[0] }

// Render writes an indented cost tree.
func (e *Explanation) Render(w io.Writer) {
	levels := e.Model.Hierarchy().Levels
	fmt.Fprintf(w, "%-60s %12s", "pattern", "time[ms]")
	for _, l := range levels {
		fmt.Fprintf(w, " %12s", l.Name+"-miss")
	}
	fmt.Fprintln(w)
	for _, n := range e.Nodes {
		label := strings.Repeat("  ", n.Depth) + n.Pattern
		if len(label) > 60 {
			label = label[:57] + "..."
		}
		fmt.Fprintf(w, "%-60s %12.3f", label, n.TimeNS/1e6)
		for _, m := range n.PerLevel {
			fmt.Fprintf(w, " %12.0f", m.Total())
		}
		fmt.Fprintln(w)
	}
}

// Explain evaluates p on cold caches and returns the itemized breakdown.
// It runs the same walk as EvaluateTree with a recorder attached, so
// the root row equals EvaluateTree's result bit for bit.
func (m *Model) Explain(p pattern.Pattern) (*Explanation, error) {
	rec := &recorder{levels: len(m.hier.Levels)}
	if _, err := m.walk(p, rec); err != nil {
		return nil, err
	}
	for i := range rec.rows {
		n := &rec.rows[i]
		for li, l := range m.hier.Levels {
			n.TimeNS += LevelResult{Level: l, Misses: n.PerLevel[li]}.MemoryTimeNS()
		}
	}
	return &Explanation{Model: m, Nodes: rec.rows}, nil
}

// recorder collects Explain's rows while evalLevel walks a pattern, one
// pass per hierarchy level. Every pass visits the nodes in the same
// preorder, so the first pass appends the rows and each later pass
// fills in its own level's misses by position. A nil recorder records
// nothing.
type recorder struct {
	rows   []ExplainNode
	levels int // hierarchy levels, the length of each row's PerLevel
	level  int // hierarchy level of the current pass
	next   int // preorder position of the next row
	depth  int // tree depth of the next row
}

// startPass rewinds the recorder for the pass over hierarchy level i.
func (r *recorder) startPass(i int) {
	if r != nil {
		r.level, r.next, r.depth = i, 0, 0
	}
}

// open starts p's row and returns its position; rows opened before the
// matching close are p's children. A walked compound is labelled by its
// arity. A summary row, a ⊙ child the walk does not descend into on the
// hierarchy's own cache, is labelled with its full rendering.
func (r *recorder) open(p pattern.Pattern, summary bool) int {
	if r == nil {
		return 0
	}
	i := r.next
	r.next++
	if r.level == 0 {
		kind, label := "basic", ""
		switch q := p.(type) {
		case pattern.Seq:
			kind, label = "seq", fmt.Sprintf("seq of %d", len(q))
		case pattern.Conc:
			kind, label = "conc", fmt.Sprintf("conc of %d", len(q))
		}
		if summary || kind == "basic" {
			label = p.String()
		}
		r.rows = append(r.rows, ExplainNode{Pattern: label, Depth: r.depth, Kind: kind, PerLevel: make([]Misses, r.levels)})
	}
	r.depth++
	return i
}

// close records the misses of the row opened at position i.
func (r *recorder) close(i int, mi Misses) {
	if r != nil {
		r.depth--
		r.rows[i].PerLevel[r.level] = mi
	}
}
