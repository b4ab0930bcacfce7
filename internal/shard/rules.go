package shard

import (
	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
	"gedlib/internal/reason"
)

// compiledRule is one GED prepared for frame-based evaluation: the
// pattern's variables with their labels and pushed-down constant
// filters, plus one extension order per entry point — orders[0] is the
// cost-aware order of the monolithic compiled plan (full enumeration);
// orders[1+k] starts at pattern variable k (the pivoted orders the
// incremental touched-node search seeds from, one per variable, exactly
// the pivots the monolithic Validator.TouchingCtx tries).
type compiledRule struct {
	idx    int
	d      *ged.GED
	vars   []pattern.Var
	labels []graph.Label
	// filters[v] are the antecedent constant literals on variable v; a
	// shard checks them only when it knows the candidate's attributes
	// (the global finalization re-checks everything regardless).
	filters [][]pattern.ConstFilter
	orders  [][]int
	steps   [][]step
	// pedges are the pattern's edges over variable indices — the
	// deferred tri-state edge checks finalization re-verifies globally.
	pedges []pedge
	// lits is X → Y compiled to binding-vector positions and the global
	// lineage's attribute ids, so finalization judges a binding without
	// building a match map.
	lits *reason.CompiledRule
}

// pedge is one pattern edge over variable indices.
type pedge struct {
	src, dst int
	label    graph.Label
}

// step is one extension step of one order: bind variable v, generating
// candidates from the first anchor (an already-bound pattern neighbor)
// and checking the rest.
type step struct {
	v int
	// anchors are the pattern edges from v to already-bound variables.
	// anchors[0] generates candidates — and routes the frame: the step
	// executes at the shard owning its binding, where the adjacency is
	// complete. The rest are checked tri-state (prune only on locally
	// definitive absence). Empty anchors mean v is disconnected from
	// the bound prefix: the frame broadcasts and every shard extends
	// over the label candidates it owns.
	anchors []anchor
	// selfLoops are v→v pattern edges, checked tri-state per candidate.
	selfLoops []graph.Label
}

// anchor is a pattern edge between the step's variable and the bound
// variable other. out reports the direction other→v (candidates come
// from other's out-neighbors); otherwise v→other (in-neighbors).
type anchor struct {
	other int
	label graph.Label
	out   bool
}

// compileRules prepares sigma against the global snapshot. The base
// extension order comes from the monolithic matcher's own compiled plan
// so the sharded search visits variables in the same statistics-driven
// order; pivoted orders are derived from it by a connected-first
// rotation around each pivot.
func compileRules(sigma ged.Set, global *graph.Snapshot) []*compiledRule {
	out := make([]*compiledRule, len(sigma))
	for gi, d := range sigma {
		vars := d.Pattern.Vars()
		varIdx := make(map[pattern.Var]int, len(vars))
		for i, x := range vars {
			varIdx[x] = i
		}
		cr := &compiledRule{
			idx:     gi,
			d:       d,
			vars:    vars,
			labels:  make([]graph.Label, len(vars)),
			filters: make([][]pattern.ConstFilter, len(vars)),
		}
		for i, x := range vars {
			cr.labels[i] = d.Pattern.Label(x)
		}
		for _, f := range reason.PushdownFilters(d) {
			if vi, ok := varIdx[f.Var]; ok {
				cr.filters[vi] = append(cr.filters[vi], f)
			}
		}
		var edges []pattern.Edge
		adj := make([][]int, len(vars)) // var -> pattern neighbors (both directions)
		for _, e := range d.Pattern.Edges() {
			edges = append(edges, e)
			si, di := varIdx[e.Src], varIdx[e.Dst]
			cr.pedges = append(cr.pedges, pedge{src: si, dst: di, label: e.Label})
			if si != di {
				adj[si] = append(adj[si], di)
				adj[di] = append(adj[di], si)
			}
		}
		cr.lits = reason.CompileRule(d, global)
		base := make([]int, 0, len(vars))
		pl := pattern.CompileFiltered(d.Pattern, global, reason.PushdownFilters(d), reason.CloseHints(d))
		for _, x := range pl.OrderedVars() {
			base = append(base, varIdx[x])
		}
		cr.orders = append(cr.orders, base)
		for k := range vars {
			cr.orders = append(cr.orders, pivotOrder(base, k, adj))
		}
		cr.steps = make([][]step, len(cr.orders))
		for oi, order := range cr.orders {
			cr.steps[oi] = buildSteps(order, varIdx, edges)
		}
		out[gi] = cr
	}
	return out
}

// pivotOrder rotates base around pivot k: k first, then repeatedly the
// earliest base-order variable adjacent to the bound prefix (falling
// back to the earliest remaining one when the pattern disconnects), so
// every step after the pivot stays anchored whenever the pattern
// allows.
func pivotOrder(base []int, k int, adj [][]int) []int {
	order := make([]int, 0, len(base))
	order = append(order, k)
	bound := make([]bool, len(adj))
	bound[k] = true
	remaining := len(base) - 1
	for remaining > 0 {
		pick := -1
		for _, v := range base {
			if bound[v] {
				continue
			}
			for _, w := range adj[v] {
				if bound[w] {
					pick = v
					break
				}
			}
			if pick >= 0 {
				break
			}
		}
		if pick < 0 {
			for _, v := range base {
				if !bound[v] {
					pick = v
					break
				}
			}
		}
		order = append(order, pick)
		bound[pick] = true
		remaining--
	}
	return order
}

// buildSteps derives the per-step anchors and self-loops of one order.
func buildSteps(order []int, varIdx map[pattern.Var]int, edges []pattern.Edge) []step {
	bound := make([]bool, len(order))
	steps := make([]step, 0, len(order))
	for _, v := range order {
		st := step{v: v}
		for _, e := range edges {
			si, di := varIdx[e.Src], varIdx[e.Dst]
			switch {
			case si == v && di == v:
				st.selfLoops = append(st.selfLoops, e.Label)
			case di == v && bound[si]:
				st.anchors = append(st.anchors, anchor{other: si, label: e.Label, out: true})
			case si == v && bound[di]:
				st.anchors = append(st.anchors, anchor{other: di, label: e.Label, out: false})
			}
		}
		bound[v] = true
		steps = append(steps, st)
	}
	return steps
}
