package gdc_test

// The small-model oracle of the static analyses: a brute-force search
// that shares no code with the chase or the solvers. Σ is satisfiable
// iff some quotient of its canonical graph G_Σ, with attribute values
// from a finite domain, is a model (the union of one match image per
// pattern is such a quotient); Σ ⊭ φ iff some quotient of φ's pattern
// graph G_Q is a countermodel (the image of the violating match is
// one). Literals compare attribute values with each other and with Σ's
// constants only, so any model's values can be replaced, preserving
// every literal, by values of the domain: Σ's constants, "absent", and
// fresh values — order-isomorphic ranks in each gap between constants
// when some literal compares with <, ≤, >, ≥ or ≠; distinct values
// otherwise. Each candidate is decided by brute-force homomorphisms and
// ged.Holds: no Eq, no chase, no solver.

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"gedlib/internal/gdc"
	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
	"gedlib/internal/reason"
)

// oracleUnknownBound is the number of Unknown answers the solver gives
// over every question of TestSmallModelOracle, which a change may lower
// but not raise. No instance here comes near the search budget.
const oracleUnknownBound = 0

// TestSmallModelOracle cross-examines reason's chase decisions and the
// solver against the brute-force oracle on random GED, GDC, GED∨ and
// mixed instances: definite verdicts must agree with it, and every
// model or counterexample must pass the validator.
func TestSmallModelOracle(t *testing.T) {
	unknown, total := 0, 0
	for _, kind := range []instanceKind{kindGED, kindGDC, kindGEDor, kindMixed} {
		rng := rand.New(rand.NewSource(int64(17 + kind)))
		for trial := 0; trial < 120; trial++ {
			sigma, phi := randomInstance(rng, kind)
			total++
			wantSat := oracleSat(sigma)
			wantImpl := oracleImplies(sigma, phi)
			where := func() string { return fmt.Sprintf("%s trial %d\nΣ = %v\nφ = %v", kind, trial, sigma, phi) }
			if kind == kindGED {
				r, err := reason.CheckSatCtx(context.Background(), sigma, 0)
				if err != nil || r.Satisfiable != wantSat {
					t.Fatalf("reason.CheckSat = %v (%v), oracle %v: %s", r.Satisfiable, err, wantSat, where())
				}
				if r.Satisfiable && !reason.IsModel(r.Model, sigma) {
					t.Fatalf("reason.CheckSat's model is not a model: %s", where())
				}
				ri, err := reason.ImpliesCtx(context.Background(), sigma, phi, 0)
				if err != nil || ri.Implied != wantImpl {
					t.Fatalf("reason.Implies = %v (%v), oracle %v: %s", ri.Implied, err, wantImpl, where())
				}
			}
			switch r := gdc.CheckSat(sigma); {
			case r.Satisfiable == gdc.Unknown:
				unknown++
				t.Logf("CheckSat unknown: %s", where())
			case (r.Satisfiable == gdc.True) != wantSat:
				t.Fatalf("CheckSat = %v, oracle %v: %s", r.Satisfiable, wantSat, where())
			case r.Satisfiable == gdc.True && !reason.IsModel(r.Model, sigma):
				t.Fatalf("CheckSat's model is not a model:\n%s\n%s", r.Model, where())
			}
			switch r := gdc.Implies(sigma, phi); {
			case r.Implied == gdc.Unknown:
				unknown++
				t.Logf("Implies unknown: %s", where())
			case (r.Implied == gdc.True) != wantImpl:
				t.Fatalf("Implies = %v, oracle %v: %s", r.Implied, wantImpl, where())
			case r.Implied == gdc.False && (!reason.Satisfies(r.Counterexample, sigma) || reason.Satisfies(r.Counterexample, ged.Set{phi})):
				t.Fatalf("Implies's counterexample is not one:\n%s\n%s", r.Counterexample, where())
			}
		}
	}
	t.Logf("%d unknown of %d questions", unknown, 2*total)
	if unknown > oracleUnknownBound {
		t.Errorf("%d unknown answers, bound %d", unknown, oracleUnknownBound)
	}
}

type instanceKind int

const (
	kindGED instanceKind = iota
	kindGDC
	kindGEDor
	kindMixed
)

func (k instanceKind) String() string {
	return [...]string{"GED", "GDC", "GED∨", "mixed"}[k]
}

var (
	oracleLabels = []graph.Label{"a", "b"}
	oracleAttrs  = []graph.Attr{"p", "q"}
	oracleOps    = []ged.Op{ged.OpEq, ged.OpNe, ged.OpLt, ged.OpLe, ged.OpGt, ged.OpGe}
)

// randomInstance draws Σ of one or two rules of the kind and φ of one,
// over patterns of one or two variables, so that G_Σ has at most four
// nodes and G_Q two, with one attribute or two. Instances whose G_Σ has
// more attribute slots than the oracle enumerates quickly (four when
// literals compare with an order, six otherwise) are drawn again.
func randomInstance(rng *rand.Rand, kind instanceKind) (ged.Set, *ged.GED) {
	limit := 6
	if kind == kindGDC || kind == kindMixed {
		limit = 4
	}
	for {
		attrs := oracleAttrs[:1+rng.Intn(2)]
		sigma := randomSigma(rng, kind, attrs)
		phi := randomSigma(rng, kind, attrs)[0]
		if gs, _ := sigma.CanonicalGraph(); gs.NumNodes()*len(attrs) <= limit {
			return sigma, phi
		}
	}
}

// randomSigma draws one or two rules of the kind; a mixed set has rules
// of at least two forms when it has two.
func randomSigma(rng *rand.Rand, kind instanceKind, attrs []graph.Attr) ged.Set {
	var sigma ged.Set
	for i := 0; i < 1+rng.Intn(2); i++ {
		form := kind
		if kind == kindMixed {
			form = []instanceKind{kindGED, kindGDC, kindGEDor}[rng.Intn(3)]
			if i == 1 && sigma[0].Form() == ged.FormGED {
				form = []instanceKind{kindGDC, kindGEDor}[rng.Intn(2)]
			}
		}
		sigma = append(sigma, randomRule(rng, fmt.Sprintf("r%d", i), form, attrs))
	}
	return sigma
}

func randomRule(rng *rand.Rand, name string, form instanceKind, attrs []graph.Attr) *ged.GED {
	q := pattern.New()
	vars := []pattern.Var{"x"}
	q.AddVar("x", oracleLabels[rng.Intn(2)])
	if rng.Intn(3) > 0 {
		vars = append(vars, "y")
		q.AddVar("y", oracleLabels[rng.Intn(2)])
		if rng.Intn(2) == 0 {
			q.AddEdge("x", "e", "y")
		}
	}
	lit := func() ged.Literal {
		x := vars[rng.Intn(len(vars))]
		op := ged.OpEq
		if form == kindGDC {
			op = oracleOps[rng.Intn(len(oracleOps))]
		}
		switch r := rng.Intn(5); {
		case r < 2:
			return ged.Cmp(x, attrs[rng.Intn(len(attrs))], op, graph.Int(rng.Intn(2)))
		case r < 4 || len(vars) == 1:
			return ged.CmpVars(x, attrs[rng.Intn(len(attrs))], op, vars[rng.Intn(len(vars))], attrs[rng.Intn(len(attrs))])
		default:
			return ged.IDLit("x", "y")
		}
	}
	var xs, ys []ged.Literal
	for n := rng.Intn(2); n > 0; n-- {
		xs = append(xs, lit())
	}
	switch form {
	case kindGEDor:
		for n := rng.Intn(3); n > 0; n-- {
			ys = append(ys, lit())
		}
	default:
		if rng.Intn(6) == 0 {
			ys = ged.False("x")
		} else {
			for n := 1 + rng.Intn(2); n > 0; n-- {
				ys = append(ys, lit())
			}
		}
	}
	d := ged.New(name, q, xs, ys)
	d.Disjunctive = form == kindGEDor
	return d
}

// oracleSat reports whether some quotient of G_Σ with domain values is a
// model of Σ.
func oracleSat(sigma ged.Set) bool {
	gs, _ := sigma.CanonicalGraph()
	return searchModels(gs, sigma, nil, func(*graph.Snapshot) bool { return true })
}

// oracleImplies reports whether no quotient of G_Q with domain values
// satisfies Σ and violates φ.
func oracleImplies(sigma ged.Set, phi *ged.GED) bool {
	gq, _ := phi.Pattern.ToGraph()
	return !searchModels(gq, sigma, phi, func(s *graph.Snapshot) bool { return !holdsAll(s, ged.Set{phi}) })
}

// searchModels enumerates every label-respecting partition of g's nodes
// and every assignment of domain values to the attribute slots of its
// classes, and reports whether one satisfies Σ and accept.
func searchModels(g *graph.Graph, sigma ged.Set, phi *ged.GED, accept func(*graph.Snapshot) bool) bool {
	rules := append(ged.Set{}, sigma...)
	if phi != nil {
		rules = append(rules, phi)
	}
	attrs, consts, ordered := vocabulary(rules)
	n := g.NumNodes()
	block := make([]int, n)
	found := false
	var partition func(i, blocks int)
	partition = func(i, blocks int) {
		if found {
			return
		}
		if i == n {
			found = searchValues(g, block, blocks, attrs, consts, ordered, sigma, accept)
			return
		}
		for b := 0; b <= blocks; b++ {
			if b < blocks && !sameBlockLabel(g, block[:i], b, g.Label(graph.NodeID(i))) {
				continue
			}
			block[i] = b
			partition(i+1, max(blocks, b+1))
		}
	}
	partition(0, 0)
	return found
}

func sameBlockLabel(g *graph.Graph, block []int, b int, l graph.Label) bool {
	for j, bj := range block {
		if bj == b {
			return g.Label(graph.NodeID(j)) == l
		}
	}
	return true
}

// vocabulary returns the attributes and constants the rules mention
// (the false desugaring's excluded: no model carries it), and whether
// some literal compares with another predicate than =.
func vocabulary(rules ged.Set) (attrs []graph.Attr, consts []graph.Value, ordered bool) {
	for _, d := range rules {
		for _, l := range append(slices.Clone(d.X), d.Y...) {
			if l.Left.Kind != ged.OperandAttr || l.Left.Attr == ged.FalseAttr {
				continue
			}
			ordered = ordered || l.Op != ged.OpEq
			attrs = append(attrs, l.Left.Attr)
			if l.Right.Kind == ged.OperandAttr {
				attrs = append(attrs, l.Right.Attr)
			} else {
				consts = append(consts, l.Right.Const)
			}
		}
	}
	slices.Sort(attrs)
	slices.SortFunc(consts, graph.Value.Compare)
	return slices.Compact(attrs), slices.CompactFunc(consts, graph.Value.Equal), ordered
}

// A slot's value choice: absent, constant cst, or rank rk of gap gap
// (the gaps are below, between and above the sorted constants).
type choice struct {
	absent  bool
	cst     int // index into consts, or -1
	gap, rk int
}

// searchValues enumerates the slot assignments of one partition. Fresh
// values are canonical: the ranks used in each gap form a prefix
// 0..m-1, so each weak order of the fresh slots is tried once (with
// ordered literals; without them one gap holds every fresh value, and
// each set partition of the slots is tried once).
func searchValues(g *graph.Graph, block []int, blocks int, attrs []graph.Attr, consts []graph.Value, ordered bool, sigma ged.Set, accept func(*graph.Snapshot) bool) bool {
	slots := blocks * len(attrs)
	gaps := 1
	if ordered {
		gaps = len(consts) + 1
	}
	choices := []choice{{absent: true, cst: -1}}
	for i := range consts {
		choices = append(choices, choice{cst: i})
	}
	for gp := 0; gp < gaps; gp++ {
		for r := 0; r < slots; r++ {
			choices = append(choices, choice{cst: -1, gap: gp, rk: r})
		}
	}
	// The attribute-free quotient, cloned per candidate.
	q := graph.New()
	for b := 0; b < blocks; b++ {
		q.AddNode(g.Label(graph.NodeID(slices.Index(block, b))))
	}
	for _, e := range g.Edges() {
		if src, dst := graph.NodeID(block[e.Src]), graph.NodeID(block[e.Dst]); !q.HasEdge(src, e.Label, dst) {
			q.AddEdge(src, e.Label, dst)
		}
	}
	pick := make([]choice, slots)
	used := make([]uint, gaps) // ranks used per gap, as bits
	var assign func(i int) bool
	assign = func(i int) bool {
		holes := 0
		for _, u := range used {
			holes += bits.Len(u) - bits.OnesCount(u)
		}
		if holes > slots-i {
			return false // too few slots left to fill the rank prefixes
		}
		if i == slots {
			m := q.Clone()
			for s, c := range pick {
				if !c.absent {
					m.SetAttr(graph.NodeID(s/len(attrs)), attrs[s%len(attrs)], domainValue(c, consts, slots))
				}
			}
			snap := m.Freeze()
			return holdsAll(snap, sigma) && accept(snap)
		}
		for _, c := range choices {
			pick[i] = c
			if c.absent || c.cst >= 0 {
				if assign(i + 1) {
					return true
				}
				continue
			}
			prev := used[c.gap]
			used[c.gap] |= 1 << c.rk
			found := assign(i + 1)
			used[c.gap] = prev
			if found {
				return true
			}
		}
		return false
	}
	return assign(0)
}

// domainValue is the concrete value of a choice: the constant, or rank
// rk of k fresh values spread evenly inside its gap.
func domainValue(c choice, consts []graph.Value, k int) graph.Value {
	if c.cst >= 0 {
		return consts[c.cst]
	}
	lo, hi := 100.0, 101.0 // above the generator's constants when unordered
	if len(consts) > 0 && c.gap <= len(consts) {
		switch {
		case c.gap == 0:
			lo, hi = consts[0].Num()-1, consts[0].Num()
		case c.gap == len(consts):
			lo, hi = consts[c.gap-1].Num(), consts[c.gap-1].Num()+1
		default:
			lo, hi = consts[c.gap-1].Num(), consts[c.gap].Num()
		}
	}
	return graph.Number(lo + (hi-lo)*float64(c.rk+1)/float64(k+1))
}

// holdsAll reports that every match of every rule satisfies it, trying
// every assignment of the rule's variables to the graph's nodes.
func holdsAll(snap *graph.Snapshot, rules ged.Set) bool {
	for _, d := range rules {
		vars := d.Pattern.Vars()
		bind := make([]graph.NodeID, len(vars))
		var try func(i int) bool
		try = func(i int) bool {
			if i == len(vars) {
				m := d.Pattern.MatchOf(bind)
				for _, e := range d.Pattern.Edges() {
					if !snap.HasEdge(m[e.Src], e.Label, m[e.Dst]) {
						return true
					}
				}
				return satisfied(snap, d, m)
			}
			for n := 0; n < snap.NumNodes(); n++ {
				bind[i] = graph.NodeID(n)
				if graph.LabelMatches(d.Pattern.Label(vars[i]), snap.Label(bind[i])) && !try(i+1) {
					return false
				}
			}
			return true
		}
		if !try(0) {
			return false
		}
	}
	return true
}

// satisfied reports h(x̄) ⊨ X → Y for one match.
func satisfied(snap *graph.Snapshot, d *ged.GED, m pattern.Match) bool {
	for _, l := range d.X {
		if !ged.Holds(snap, l, m) {
			return true
		}
	}
	for _, l := range d.Y {
		h := ged.Holds(snap, l, m)
		if d.Disjunctive && h {
			return true
		}
		if !d.Disjunctive && !h {
			return false
		}
	}
	return !d.Disjunctive
}
