// Package repair implements chase-based data cleaning, the application
// the paper's introduction motivates: dependencies "have been widely
// used in practice to detect semantic inconsistencies and repair data."
//
// Repairing a graph G under a set Σ of GEDs is the chase of G by Σ read
// as an edit script: equating attributes fills in or corrects values,
// id literals merge duplicate entities, and attribute generation adds
// required fields. Theorem 1 makes the outcome canonical — the repair is
// the same whatever order the rules fire in. When the chase is invalid
// the data conflicts with Σ in a way no value- or merge-edit fixes
// (e.g. a forbidding constraint matched, or two sources insist on
// different constants); the conflict is reported for human resolution
// instead of silently choosing a side.
package repair

import (
	"context"
	"fmt"

	"gedlib/internal/chase"
	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// EditKind discriminates repair edits.
type EditKind uint8

const (
	// SetAttr records an attribute write (new or corrected value).
	SetAttr EditKind = iota
	// MergeNodes records an entity merge.
	MergeNodes
	// EquateAttrs records two attributes forced to one (unknown) value.
	EquateAttrs
)

// Edit is one entry of the repair script.
type Edit struct {
	Kind EditKind
	// Rule names the GED that forced the edit.
	Rule string
	// Node / Attr / Value describe a SetAttr.
	Node  graph.NodeID
	Attr  graph.Attr
	Value graph.Value
	// A, B are the merged nodes (MergeNodes) or the second attribute
	// site (EquateAttrs: A.Attr = B.Attr2).
	A, B   graph.NodeID
	Attr2  graph.Attr
	HadOld bool
	Old    graph.Value
}

// String renders the edit.
func (e Edit) String() string {
	switch e.Kind {
	case SetAttr:
		if e.HadOld {
			return fmt.Sprintf("[%s] set n%d.%s = %s (was %s)", e.Rule, e.Node, e.Attr, e.Value, e.Old)
		}
		return fmt.Sprintf("[%s] set n%d.%s = %s (new)", e.Rule, e.Node, e.Attr, e.Value)
	case MergeNodes:
		return fmt.Sprintf("[%s] merge n%d into n%d", e.Rule, e.B, e.A)
	default:
		return fmt.Sprintf("[%s] equate n%d.%s with n%d.%s", e.Rule, e.A, e.Attr, e.B, e.Attr2)
	}
}

// Result reports a repair.
type Result struct {
	// Repaired reports whether a canonical repair exists.
	Repaired bool
	// Graph is the repaired graph (the materialized chase quotient).
	Graph *graph.Graph
	// NodeOf maps original nodes into the repaired graph.
	NodeOf map[graph.NodeID]graph.NodeID
	// Edits is the canonical edit script derived from the chase trace.
	Edits []Edit
	// Conflict explains why no repair exists, when Repaired is false.
	Conflict *chase.Conflict
	// ConflictRule names the GED whose enforcement failed, if known.
	ConflictRule string
}

// Run repairs g under sigma. The input graph is not modified.
func Run(g *graph.Graph, sigma ged.Set) *Result {
	out, _ := RunCtx(context.Background(), g, sigma, 0)
	return out
}

// RunCtx is Run with cooperative cancellation and an optional chase
// round bound (see chase.RunCtx). On cancellation or an exceeded bound
// the error is non-nil and the result is not meaningful.
func RunCtx(ctx context.Context, g *graph.Graph, sigma ged.Set, maxRounds int) (*Result, error) {
	res, err := chase.RunCtx(ctx, g, sigma, nil, maxRounds)
	if err != nil {
		return nil, err
	}
	out := &Result{}
	if !res.Consistent() {
		out.Conflict = res.Eq.Conflict()
		if n := len(res.Steps); n > 0 {
			out.ConflictRule = sigma[res.Steps[n-1].GED].Name
		}
		return out, nil
	}
	out.Repaired = true
	out.Graph = res.Materialize()
	out.NodeOf = res.Coercion().NodeOf
	out.Edits = editScript(g, res, sigma)
	return out, nil
}

// editScript translates the chase trace into user-facing edits.
func editScript(orig *graph.Graph, res *chase.Result, sigma ged.Set) []Edit {
	var edits []Edit
	for _, s := range res.Steps {
		d := sigma[s.GED]
		l := d.Y[s.Literal]
		k, _ := l.Kind()
		switch k {
		case ged.ConstLiteral:
			n := s.Match[l.Left.Var]
			e := Edit{Kind: SetAttr, Rule: d.Name, Node: n, Attr: l.Left.Attr, Value: l.Right.Const}
			if v, ok := orig.Attr(n, l.Left.Attr); ok {
				e.HadOld, e.Old = true, v
			}
			edits = append(edits, e)
		case ged.VarLiteral:
			a := s.Match[l.Left.Var]
			b := s.Match[l.Right.Var]
			// If one side holds a concrete original value, report a copy;
			// otherwise an equate.
			if v, ok := orig.Attr(b, l.Right.Attr); ok {
				e := Edit{Kind: SetAttr, Rule: d.Name, Node: a, Attr: l.Left.Attr, Value: v}
				if old, had := orig.Attr(a, l.Left.Attr); had {
					e.HadOld, e.Old = true, old
				}
				edits = append(edits, e)
			} else if v, ok := orig.Attr(a, l.Left.Attr); ok {
				edits = append(edits, Edit{Kind: SetAttr, Rule: d.Name, Node: b, Attr: l.Right.Attr, Value: v})
			} else {
				edits = append(edits, Edit{Kind: EquateAttrs, Rule: d.Name,
					A: a, Attr: l.Left.Attr, B: b, Attr2: l.Right.Attr})
			}
		case ged.IDLiteral:
			edits = append(edits, Edit{Kind: MergeNodes, Rule: d.Name,
				A: s.Match[l.Left.Var], B: s.Match[l.Right.Var]})
		}
	}
	return edits
}

// Check reports the violations that a repair would address, without
// performing it: the matches of Σ's patterns whose antecedents hold but
// whose consequents fail on g.
func Check(g *graph.Graph, sigma ged.Set) []string {
	snap := g.Freeze()
	var out []string
	for _, d := range sigma {
		pattern.ForEachMatch(d.Pattern, snap, func(m pattern.Match) bool {
			for _, l := range d.X {
				if !ged.Holds(snap, l, m) {
					return true
				}
			}
			for _, l := range d.Y {
				if !ged.Holds(snap, l, m) {
					out = append(out, fmt.Sprintf("%s: %v fails %s", d.Name, m, l))
					return true
				}
			}
			return true
		})
	}
	return out
}
