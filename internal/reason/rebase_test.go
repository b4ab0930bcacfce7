package reason

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"

	"gedlib/internal/ged"
	"gedlib/internal/gen"
	"gedlib/internal/graph"
	"gedlib/internal/obs"
	"gedlib/internal/pattern"
)

// planInfo is reg's ged_match_plan_info series, one line each.
func planInfo(reg *obs.Registry) string {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	var out []string
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(l, "ged_match_plan_info{") {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestRebaseReordersOnLateLabel: a rule compiled while its label L
// occurs nowhere binds its L variable first, since it has no
// candidates. Once a delta adds 1,000 L nodes, the rebased validator's
// plan — its order, and the ged_match_plan_info series naming it — is
// a fresh compile's, which starts at the ten P nodes instead of
// scanning every L node.
func TestRebaseReordersOnLateLabel(t *testing.T) {
	g := graph.New()
	for i := 0; i < 10; i++ {
		g.AddNode("P")
	}
	q := pattern.New()
	q.AddVar("x", "L").AddVar("y", "P")
	q.AddEdge("x", "e", "y")
	sigma := ged.Set{ged.New("late", q, nil, []ged.Literal{ged.ConstLit("x", "a", graph.Int(1))})}
	snap := g.Freeze()
	reg := obs.NewRegistry()
	val := NewValidatorOn(snap, sigma)
	val.Observe(reg)

	from := g.Version()
	for i := 0; i < 1000; i++ {
		g.AddEdge(g.AddNode("L"), "e", graph.NodeID(i%10))
	}
	post := snap.Apply(g.DeltaSince(from))
	rebased := val.Rebase(post)
	freshReg := obs.NewRegistry()
	fresh := NewValidatorOn(post, sigma)
	fresh.Observe(freshReg)

	if stale, want := val.plans[0].Fingerprint(), fresh.plans[0].Fingerprint(); stale == want {
		t.Fatalf("the compile-time plan %s is already the fresh one: the test shows nothing", stale)
	}
	if got, want := rebased.plans[0].Fingerprint(), fresh.plans[0].Fingerprint(); got != want {
		t.Errorf("rebased plan %s, a fresh compile's %s", got, want)
	}
	if got, want := planInfo(reg), planInfo(freshReg); got != want || want == "" {
		t.Errorf("rebased validator reports\n%s\na fresh compile's\n%s", got, want)
	}
	ctx := context.Background()
	got, _ := rebased.RunCtx(ctx, 0)
	want, _ := fresh.RunCtx(ctx, 0)
	if len(want) != 1000 || violationBytes(got, sigma) != violationBytes(want, sigma) {
		t.Errorf("the rebased validator's %d violations differ from a fresh one's %d, order included", len(got), len(want))
	}
}

// TestRebaseAllocsFlatInRules: plans and compiled rules hold no
// snapshot, so rebasing onto a successor that brings no new symbol
// shares them all and allocates one Validator, for 64 rules as for 4.
func TestRebaseAllocsFlatInRules(t *testing.T) {
	g, _ := gen.KnowledgeBase(17, 100, 0.1)
	rules := ged.Set{gen.PaperPhi1(), gen.PaperPhi2(), gen.PaperPhi3(), gen.PaperPhi4()}
	snap := g.Freeze()
	from := g.Version()
	g.SetAttr(0, "type", graph.String("video game"))
	post := snap.Apply(g.DeltaSince(from))
	cost := func(n int) (allocs, bytes float64) {
		sigma := make(ged.Set, n)
		for i := range sigma {
			sigma[i] = rules[i%len(rules)]
		}
		val := NewValidatorOn(snap, sigma)
		val.Rebase(post)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		allocs = testing.AllocsPerRun(99, func() { val.Rebase(post) })
		runtime.ReadMemStats(&m1)
		return allocs, float64(m1.TotalAlloc-m0.TotalAlloc) / 100
	}
	a4, b4 := cost(4)
	a64, b64 := cost(64)
	if a64 != a4 || b64 > b4+8 {
		t.Fatalf("Rebase allocates %.0f times, %.0f B for 4 rules but %.0f times, %.0f B for 64", a4, b4, a64, b64)
	}
}

// wideSigma is one rule over a 9-variable path x0 → … → x8, one
// variable past denseKeyVars, so its matches key through wideKey: its
// consequent x0.p = x8.p fails wherever the path's ends disagree.
func wideSigma() ged.Set {
	q := pattern.New()
	vars := make([]pattern.Var, 9)
	for i := range vars {
		vars[i] = pattern.Var("x" + string(rune('0'+i)))
		q.AddVar(vars[i], graph.Label("l"+string(rune('0'+i))))
	}
	for i := 1; i < len(vars); i++ {
		q.AddEdge(vars[i-1], "e", vars[i])
	}
	d := ged.New("wide", q, nil, []ged.Literal{ged.VarLit(vars[0], "p", vars[8], "p")})
	if len(d.Pattern.Vars()) <= denseKeyVars {
		panic("wideSigma: the pattern fits the dense key")
	}
	return ged.Set{d}
}

// layeredGraph has k nodes on each of the nine layers of wideSigma's
// path; an edge joins each node to about half of the next layer.
func layeredGraph(k int, seed int) *graph.Graph {
	g := graph.New()
	for layer := 0; layer < 9; layer++ {
		for i := 0; i < k; i++ {
			g.AddNodeAttrs(graph.Label("l"+string(rune('0'+layer))), map[graph.Attr]graph.Value{"p": graph.Int((i + seed) % 2)})
		}
	}
	for layer := 1; layer < 9; layer++ {
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if (i*7+j*3+layer*5+seed)%3 != 0 {
					g.AddEdge(graph.NodeID((layer-1)*k+i), "e", graph.NodeID(layer*k+j))
				}
			}
		}
	}
	return g
}

// canonicalBytes is violationBytes of vs in canonical order.
func canonicalBytes(vs []Violation, sigma ged.Set) string {
	vs = slices.Clone(vs)
	sortViolations(vs, sigma)
	return violationBytes(vs, sigma)
}

// TestWideRuleTouchingAndStore: a rule one variable past denseKeyVars
// goes through the string-keyed path of the touched search's and the
// store's key set; both still agree with full validation after every
// delta.
func TestWideRuleTouchingAndStore(t *testing.T) {
	ctx := context.Background()
	sigma := wideSigma()
	g := layeredGraph(3, 1)
	st, err := NewViolationStoreCtx(ctx, NewValidatorOn(g.Freeze(), sigma))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Violations()) == 0 {
		t.Fatal("no violations to maintain: the test shows nothing")
	}
	n := g.NumNodes()
	for step := 0; step < 12; step++ {
		from := st.Snapshot().SourceVersion()
		a, b := graph.NodeID((step*5)%n), graph.NodeID((step*11+3)%n)
		g.SetAttr(a, "p", graph.Int(step%2))
		if b/3 < 8 {
			g.AddEdge(b, "e", graph.NodeID((b/3+1)*3+graph.NodeID(step%3)))
		}
		d := g.DeltaSince(from)
		post := st.Snapshot().Apply(d)
		if err := st.Apply(ctx, post, d.TouchedNodes()); err != nil {
			t.Fatal(err)
		}
		full, _ := NewValidatorOn(g.Freeze(), sigma).RunCtx(ctx, 0)
		if got, want := canonicalBytes(st.Violations(), sigma), canonicalBytes(full, sigma); got != want {
			t.Fatalf("step %d: store holds\n%sfull validation finds\n%s", step, got, want)
		}
		touched, err := st.Validator().TouchingCtx(ctx, d.TouchedNodes(), 0)
		if err != nil {
			t.Fatal(err)
		}
		var want []Violation
		for _, v := range full {
			if touches(d.TouchedNodes())(v) {
				want = append(want, v)
			}
		}
		if got, want := violationBytes(touched, sigma), canonicalBytes(want, sigma); got != want {
			t.Fatalf("step %d: touched search finds\n%sfull validation\n%s", step, got, want)
		}
	}
}

// TestStoreRebuildsIndexPastDross: dropping entries leaves references
// in the node lists no delta visits; past 4·|V|+64 of them the store
// rebuilds its index, which must then be exactly the index of its live
// entries, and the store must keep agreeing with full validation.
func TestStoreRebuildsIndexPastDross(t *testing.T) {
	ctx := context.Background()
	sigma := wideSigma()
	// Forty disjoint 9-node paths, each one violation until its head's
	// p is repaired; a repair touches the head alone, so each drop
	// leaves eight references behind.
	g := graph.New()
	const paths = 40
	for i := 0; i < paths; i++ {
		prev := graph.NodeID(-1)
		for layer := 0; layer < 9; layer++ {
			id := g.AddNodeAttrs(graph.Label("l"+string(rune('0'+layer))), map[graph.Attr]graph.Value{"p": graph.Int(min(layer, 1))})
			if prev >= 0 {
				g.AddEdge(prev, "e", id)
			}
			prev = id
		}
	}
	st, err := NewViolationStoreCtx(ctx, NewValidatorOn(g.Freeze(), sigma))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Violations()) != paths {
		t.Fatalf("%d violations, want %d", len(st.Violations()), paths)
	}
	apply := func(mutate func()) {
		t.Helper()
		from := st.Snapshot().SourceVersion()
		mutate()
		d := g.DeltaSince(from)
		if err := st.Apply(ctx, st.Snapshot().Apply(d), d.TouchedNodes()); err != nil {
			t.Fatal(err)
		}
		full, _ := NewValidatorOn(g.Freeze(), sigma).RunCtx(ctx, 0)
		if got, want := canonicalBytes(st.Violations(), sigma), canonicalBytes(full, sigma); got != want {
			t.Fatalf("store holds\n%sfull validation finds\n%s", got, want)
		}
	}
	// Repair paths one by one: eight references dropped a repair, while
	// the live entries dwindle, until the store rebuilds its index.
	rebuilt := false
	for i := 0; i < 30 && !rebuilt; i++ {
		apply(func() { g.SetAttr(graph.NodeID(9*i), "p", graph.Int(1)) })
		rebuilt = st.dross == 0
	}
	if !rebuilt {
		t.Fatal("the store never rebuilt its index")
	}
	want := map[graph.NodeID][]*storedViolation{}
	for _, e := range st.vs {
		for _, x := range e.v.GED.Pattern.Vars() {
			if n := e.v.Match[x]; !slices.Contains(want[n], e) {
				want[n] = append(want[n], e)
			}
		}
	}
	if !sameIndex(st.byNode, want) {
		t.Fatalf("rebuilt index has %d nodes, the live entries bind %d", len(st.byNode), len(want))
	}
	// Break three repaired paths again and repair one more.
	apply(func() {
		for i := 0; i < 3; i++ {
			g.SetAttr(graph.NodeID(9*i+8), "p", graph.Int(0))
		}
		g.SetAttr(graph.NodeID(9*35), "p", graph.Int(1))
	})
}

// sameIndex reports that a and b list the same entries for each node.
func sameIndex(a, b map[graph.NodeID][]*storedViolation) bool {
	if len(a) != len(b) {
		return false
	}
	for n, es := range a {
		if len(es) != len(b[n]) {
			return false
		}
		for _, e := range es {
			if !slices.Contains(b[n], e) {
				return false
			}
		}
	}
	return true
}
