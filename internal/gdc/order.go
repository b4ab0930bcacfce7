package gdc

import (
	"slices"

	"gedlib/internal/chase"
	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// value is one side of a comparison resolved under Eq: a value class,
// by its root term, or a constant (a class bound to a constant is that
// constant).
type value struct {
	term    chase.Term
	c       graph.Value
	isConst bool
}

// order is the order layer of one branch: its comparison facts resolved
// onto Eq's value classes. Its vertices are every constant of the
// instance, chained in the order of U, and every class a fact mentions;
// its edges are lo ≤ hi or lo < hi, plus disequalities. The layer takes
// the domain as totally ordered and dense on each kind, so x ≤ y ≤ x
// forces x = y, a cycle through a strict edge is infeasible, and
// anything else is realizable. Numbers are dense; strings are not, and
// a class with no string left between its bounds surfaces when assign
// builds the witness (ErrNoWitness). The layer keeps no classes of its
// own: a forced equality goes back to the chase as a seed.
type order struct {
	eq     *chase.Eq
	vertex map[value]int
	vals   []value
	slots  []slotRef // per vertex: a slot of its class (unused for a constant)
	edges  []orderEdge
	diseqs [][2]int
	// reach[i][j] is 0, or 1 when i ≤ j follows from the edges, or 2
	// when i < j does; set by close.
	reach [][]uint8
}

// slotRef names the slot node.attr.
type slotRef struct {
	node graph.NodeID
	attr graph.Attr
}

type orderEdge struct {
	lo, hi int
	strict bool
}

// newOrder resolves the comparison facts onto eq's classes; consts are
// the instance's constants, sorted by the order of U.
func newOrder(eq *chase.Eq, consts []graph.Value, facts []chase.Seed) order {
	o := order{eq: eq}
	if len(facts) == 0 {
		return o // every comparison is then decided by Eq alone, or not at all
	}
	o.vertex = make(map[value]int, len(consts)+2*len(facts))
	for i, c := range consts {
		o.add(value{c: c, isConst: true}, slotRef{})
		if i > 0 {
			o.edges = append(o.edges, orderEdge{lo: i - 1, hi: i, strict: true})
		}
	}
	for _, f := range facts {
		l := f.Literal
		a := o.addSlot(slotRef{f.Nodes[l.Left.Var], l.Left.Attr})
		var b int
		if l.Right.Kind == ged.OperandAttr {
			b = o.addSlot(slotRef{f.Nodes[l.Right.Var], l.Right.Attr})
		} else {
			b = o.add(value{c: l.Right.Const, isConst: true}, slotRef{})
		}
		switch l.Op {
		case ged.OpNe:
			o.diseqs = append(o.diseqs, [2]int{a, b})
		case ged.OpLt, ged.OpLe:
			o.edges = append(o.edges, orderEdge{lo: a, hi: b, strict: l.Op == ged.OpLt})
		case ged.OpGt, ged.OpGe:
			o.edges = append(o.edges, orderEdge{lo: b, hi: a, strict: l.Op == ged.OpGt})
		}
	}
	return o
}

// addSlot adds the class of a fact's slot, which the branch's trivial
// seed x.A = x.A has generated.
func (o *order) addSlot(r slotRef) int {
	v, _ := o.slot(r.node, r.attr)
	return o.add(v, r)
}

func (o *order) add(v value, r slotRef) int {
	if i, ok := o.vertex[v]; ok {
		return i
	}
	o.vertex[v] = len(o.vals)
	o.vals = append(o.vals, v)
	o.slots = append(o.slots, r)
	return len(o.vals) - 1
}

// slot resolves attribute a of node x's class, and reports whether the
// class carries it.
func (o *order) slot(x graph.NodeID, a graph.Attr) (value, bool) {
	t, ok := o.eq.SlotTerm(x, a)
	if !ok {
		return value{}, false
	}
	if c, ok := o.eq.ClassConst(t); ok {
		return value{c: c, isConst: true}, true
	}
	return value{term: t}, true
}

// close computes reach and judges the layer. It reports false when no
// assignment satisfies it, and otherwise returns the equalities it
// forces (x ≤ y ≤ x, or a class pinned between equal bounds) as seeds,
// which are none once the chase has applied them.
func (o *order) close() (forced []chase.Seed, ok bool) {
	n := len(o.vals)
	o.reach = make([][]uint8, n)
	for i := range o.reach {
		o.reach[i] = make([]uint8, n)
	}
	for _, e := range o.edges {
		o.reach[e.lo][e.hi] = max(o.reach[e.lo][e.hi], 1+b2u(e.strict))
	}
	// Floyd–Warshall, keeping the strictest path.
	for k := range n {
		for i := range n {
			if o.reach[i][k] == 0 {
				continue
			}
			for j := range n {
				if o.reach[k][j] != 0 {
					o.reach[i][j] = max(o.reach[i][j], o.reach[i][k], o.reach[k][j])
				}
			}
		}
	}
	for _, d := range o.diseqs {
		if d[0] == d[1] {
			return nil, false
		}
	}
	for i := range n {
		if o.reach[i][i] == 2 {
			return nil, false
		}
		for j := i + 1; j < n; j++ {
			if o.reach[i][j] == 0 || o.reach[j][i] == 0 {
				continue
			}
			a, b := i, j
			if o.vals[a].isConst {
				a, b = b, a // a constant pair here would be a strict cycle
			}
			x, y := o.slots[a], o.slots[b]
			l := ged.ConstLit("x", x.attr, o.vals[b].c)
			if !o.vals[b].isConst {
				l = ged.VarLit("x", x.attr, "y", y.attr)
			}
			forced = append(forced, chase.Seed{Literal: l, Nodes: map[pattern.Var]graph.NodeID{"x": x.node, "y": y.node}})
		}
	}
	return forced, true
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// status is a literal's truth under a branch: entailed, refuted or not
// yet decided.
type status uint8

const (
	undecided status = iota
	entailed
	refuted
)

// cmp judges a ⊕ b from the closure: it is entailed or refuted when the
// layer's every assignment makes it true or false, and undecided
// otherwise (including when a class is in no fact).
func (o *order) cmp(a value, op ged.Op, b value) status {
	switch {
	case a == b:
		return truth(op.Eval(graph.Int(0), graph.Int(0)))
	case a.isConst && b.isConst:
		return truth(op.Eval(a.c, b.c))
	}
	i, ok1 := o.vertex[a]
	j, ok2 := o.vertex[b]
	if !ok1 || !ok2 {
		return undecided
	}
	if op == ged.OpGt || op == ged.OpGe {
		i, j, op = j, i, op.Flip()
	}
	ne := slices.Contains(o.diseqs, [2]int{i, j}) || slices.Contains(o.diseqs, [2]int{j, i})
	lt := o.reach[i][j] == 2 || o.reach[i][j] == 1 && ne
	gt := o.reach[j][i] == 2 || o.reach[j][i] == 1 && ne
	switch op {
	case ged.OpEq, ged.OpNe:
		if ne || lt || gt {
			return truth(op == ged.OpNe)
		}
	case ged.OpLt:
		switch {
		case lt:
			return entailed
		case o.reach[j][i] != 0:
			return refuted
		}
	case ged.OpLe:
		switch {
		case o.reach[i][j] != 0:
			return entailed
		case gt:
			return refuted
		}
	}
	return undecided
}

func (v status) String() string { return [...]string{"undecided", "entailed", "refuted"}[v] }

func truth(b bool) status {
	if b {
		return entailed
	}
	return refuted
}

// assign picks a value for every class vertex of a closed, feasible
// layer that forces no equality: each lies strictly between its bounds,
// and no two vertices, nor a vertex and a constant, share a value, so
// every comparison the layer leaves open comes out false for =. It
// reports false when some class's bounds are two strings with no
// untaken string between them: the one place the layer's density
// assumption fails.
func (o *order) assign() (map[chase.Term]graph.Value, bool) {
	got := make([]*graph.Value, len(o.vals)) // the constants, then each class as it is assigned
	taken := make(map[graph.Value]bool, len(o.vals))
	var vs []int
	for i, v := range o.vals {
		if v.isConst {
			got[i], taken[v.c] = &o.vals[i].c, true
		} else {
			vs = append(vs, i)
		}
	}
	// Ancestors first: in a transitive, acyclic reach the number of
	// ancestors grows along every edge, so a class's only assigned
	// successors are constants.
	ancestors := func(j int) (n int) {
		for i := range o.vals {
			n += int(b2u(i != j && o.reach[i][j] != 0))
		}
		return n
	}
	slices.SortStableFunc(vs, func(a, b int) int { return ancestors(a) - ancestors(b) })
	out := make(map[chase.Term]graph.Value, len(vs))
	for _, j := range vs {
		var lo, hi *graph.Value
		for i, w := range got {
			switch {
			case w == nil:
			case o.reach[i][j] != 0 && (lo == nil || lo.Less(*w)):
				lo = w
			case o.reach[j][i] != 0 && (hi == nil || w.Less(*hi)):
				hi = w
			}
		}
		v, ok := between(lo, hi, taken)
		if !ok {
			return nil, false
		}
		taken[v], got[j], out[o.vals[j].term] = true, &v, v
	}
	return out, true
}

// between returns an untaken value strictly between lo and hi (either
// may be nil), preferring numbers, and reports whether it found one.
// Above a string lo it tries lo+"~", lo+"~~", …, and, when hi cuts that
// chain off, the least strings above lo: lo+"\x00", lo+"\x00\x00", ….
func between(lo, hi *graph.Value, taken map[graph.Value]bool) (graph.Value, bool) {
	v := graph.Number(0)
	next := func() graph.Value { return graph.Number(v.Num() + 1) }
	in := func() bool { return (lo == nil || lo.Less(v)) && (hi == nil || v.Less(*hi)) }
	switch {
	case lo != nil && !lo.IsNumber():
		suffix := "~"
		if v = graph.String(lo.Str() + suffix); !in() {
			suffix = "\x00"
			v = graph.String(lo.Str() + suffix)
		}
		next = func() graph.Value { return graph.String(v.Str() + suffix) }
	case lo != nil && hi != nil && hi.IsNumber():
		v = graph.Number((lo.Num() + hi.Num()) / 2)
		next = func() graph.Value { return graph.Number((lo.Num() + v.Num()) / 2) }
	case lo != nil:
		v = graph.Number(lo.Num() + 1)
	case hi != nil && hi.IsNumber():
		v = graph.Number(hi.Num() - 1)
		next = func() graph.Value { return graph.Number(v.Num() - 1) }
	}
	for taken[v] && in() {
		v = next()
	}
	return v, in() && !taken[v]
}
