package chase

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/obs"
	"gedlib/internal/pattern"
)

// chaseTally is one chase run under a private observer: what it counted
// by the time the chase returned, next to the result.
type chaseTally struct {
	res                               *Result
	err                               error
	rounds, matches, steps, quotients int
	o                                 *obs.Observer
}

// tallyChase runs the chase, or with refreeze set its oracle.
func tallyChase(ctx context.Context, g *graph.Graph, sigma ged.Set, seeds []Seed, maxRounds int, refreeze bool) chaseTally {
	o := obs.New(nil)
	run := RunCtx
	if refreeze {
		run = RunRefreeze
	}
	res, err := run(obs.ContextWithObserver(ctx, o), g, sigma, seeds, maxRounds)
	t := chaseTally{res: res, err: err, o: o}
	t.rounds, t.matches, t.steps = t.count("ged_chase_rounds_total"), t.count("ged_chase_matches_total"), t.count("ged_chase_steps_total")
	t.quotients = t.count("ged_chase_quotients_total")
	return t
}

// count reads one of the run's counters as it stands now.
func (t chaseTally) count(name string) int { return int(t.o.Registry().Counter(name, "").Value()) }

// lazyCoercion checks the coercion contract of a consistent result whose
// chase returned with no coercion built: the first Coercion call builds
// the coercion of the result's Eq and counts it, the second returns the
// same one and counts nothing.
func lazyCoercion(t *testing.T, at string, got chaseTally) *Coercion {
	t.Helper()
	if n := got.count("ged_chase_coercions_total"); n != 0 {
		t.Fatalf("%s: %d coercions built before one was asked for", at, n)
	}
	co := got.res.Coercion()
	if again := got.res.Coercion(); co == nil || again != co {
		t.Fatalf("%s: Coercion() = %p, then %p", at, co, again)
	}
	if n := got.count("ged_chase_coercions_total"); n != 1 {
		t.Fatalf("%s: %d coercions counted after two Coercion calls, want 1", at, n)
	}
	fresh := Coerce(got.res.Eq)
	if co.Graph.String() != fresh.Graph.String() || !reflect.DeepEqual(co.NodeOf, fresh.NodeOf) || !reflect.DeepEqual(co.RepOf, fresh.RepOf) {
		t.Fatalf("%s: Coercion() is not the coercion of the result's Eq", at)
	}
	return co
}

// sameChase fails unless got and want are the same chase result: same
// node partition, same constants, same materialized witness.
func sameChase(t *testing.T, at string, g *graph.Graph, got, want *Result) {
	t.Helper()
	// Two partitions are equal iff their class representatives correspond
	// one to one.
	gotOf, wantOf := map[graph.NodeID]graph.NodeID{}, map[graph.NodeID]graph.NodeID{}
	for _, a := range g.Nodes() {
		gr, wr := got.Eq.NodeRoot(a), want.Eq.NodeRoot(a)
		if w, ok := wantOf[gr]; ok && w != wr {
			t.Fatalf("%s: node %d is identified with %d, which the oracle keeps apart", at, a, gr)
		}
		if o, ok := gotOf[wr]; ok && o != gr {
			t.Fatalf("%s: node %d is kept apart from %d, which the oracle identifies", at, a, o)
		}
		wantOf[gr], gotOf[wr] = wr, gr
		for _, attr := range []graph.Attr{"p", "q"} {
			gv, gok := got.Eq.AttrConst(a, attr)
			wv, wok := want.Eq.AttrConst(a, attr)
			if gok != wok || (gok && !gv.Equal(wv)) {
				t.Fatalf("%s: AttrConst(%d,%s) = (%v,%v), want (%v,%v)", at, a, attr, gv, gok, wv, wok)
			}
		}
	}
	if got.Materialize().String() != want.Materialize().String() {
		t.Fatalf("%s: materialized witnesses differ", at)
	}
}

// TestJoinChaseEquivalentToRefreeze: sweeping Σ component by component
// and joining on X's literals under Eq computes the chase the legacy
// loop computes by enumerating every pattern whole — same verdict, same
// relation, same witness — in no more rounds, and hands out, when asked
// for one, the coercion of the final relation.
func TestJoinChaseEquivalentToRefreeze(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{211, 223, 227} {
		rng := rand.New(rand.NewSource(seed))
		consistent, joined := 0, 0
		for trial := 0; trial < 400; trial++ {
			at := fmt.Sprintf("seed %d trial %d", seed, trial)
			g, sigma := randomInstance(rng)
			join := tallyChase(ctx, g, sigma, nil, 0, false)
			oracle := tallyChase(ctx, g, sigma, nil, 0, true)
			if join.err != nil || oracle.err != nil {
				t.Fatalf("%s: errors %v / %v", at, join.err, oracle.err)
			}
			if join.rounds > oracle.rounds {
				t.Fatalf("%s: %d rounds, the oracle needs %d", at, join.rounds, oracle.rounds)
			}
			if join.steps != len(join.res.Steps) || (join.steps > 0 && join.matches == 0) {
				t.Fatalf("%s: observer counted %d steps over %d matches, the trace has %d steps",
					at, join.steps, join.matches, len(join.res.Steps))
			}
			for _, st := range join.res.Steps {
				if compileRule(join.res.Eq, sigma[st.GED], 0).keyed {
					joined++ // a keyed join proposed a binding that fired
					break
				}
			}
			if join.res.Consistent() != oracle.res.Consistent() {
				t.Fatalf("%s: consistency differs: join=%v oracle=%v", at, join.res.Consistent(), oracle.res.Consistent())
			}
			if !join.res.Consistent() {
				if jk, ok := join.res.Eq.Conflict().Kind, oracle.res.Eq.Conflict().Kind; jk != ok {
					t.Fatalf("%s: conflict kind %d, oracle's %d", at, jk, ok)
				}
				continue
			}
			consistent++
			sameChase(t, at, g, join.res, oracle.res)
			lazyCoercion(t, at, join)
		}
		if consistent < 200 || joined < 30 {
			t.Fatalf("seed %d: %d consistent instances, %d in which a keyed join fired a step: the generator lost its bite",
				seed, consistent, joined)
		}
	}
}

// parentKey is a key that feeds itself: a node is identified by its
// name and the id of its parent, so identifying two parents makes the
// antecedent true for their children only afterwards.
func parentKey(t *testing.T) *ged.GED {
	t.Helper()
	q := pattern.New()
	q.AddVar("x", "n").AddVar("z", "n").AddEdge("x", "parent", "z")
	k, err := ged.NewGKey("parent", q, "x", func(x, fx pattern.Var) []ged.Literal {
		if x == "x" {
			return []ged.Literal{ged.VarLit(x, "name", fx, "name")}
		}
		return []ged.Literal{ged.IDLit(x, fx)}
	})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestJoinChaseReprobesWithinSweep: two name-equal chains hang off one
// root. Each identification makes the join keys of the next pair equal,
// so a sweep that keyed once and stopped would climb one level a round.
// The oracle's cross product may or may not meet the pairs root-down
// (it does when node ids run that way); re-probing while a pass applied
// a step closes the whole chain in the opening round either way, so the
// round bound that sufficed for the oracle suffices for the join.
func TestJoinChaseReprobesWithinSweep(t *testing.T) {
	const depth = 6
	for _, rootDown := range []bool{true, false} {
		g := graph.New()
		root := g.AddNodeAttrs("n", map[graph.Attr]graph.Value{"name": graph.String("root")})
		var chains [2][]graph.NodeID // root-down
		for i := 1; i <= depth; i++ {
			level := i
			if !rootDown {
				level = depth + 1 - i // ids ascend leaf-up
			}
			for c := range chains {
				id := g.AddNodeAttrs("n", map[graph.Attr]graph.Value{"name": graph.String(fmt.Sprintf("level%d", level))})
				if rootDown {
					chains[c] = append(chains[c], id)
				} else {
					chains[c] = append([]graph.NodeID{id}, chains[c]...)
				}
			}
		}
		for c := range chains {
			parent := root
			for _, id := range chains[c] {
				g.AddEdge(id, "parent", parent)
				parent = id
			}
		}
		sigma := ged.Set{parentKey(t)}
		ctx := context.Background()
		oracle := tallyChase(ctx, g, sigma, nil, 0, true)
		if oracle.err != nil || !oracle.res.Consistent() {
			t.Fatalf("rootDown=%v: oracle: err %v, consistent %v", rootDown, oracle.err, oracle.res.Consistent())
		}
		join := tallyChase(ctx, g, sigma, nil, oracle.rounds, false)
		if join.err != nil {
			t.Fatalf("rootDown=%v: join chase under the oracle's %d rounds: %v", rootDown, oracle.rounds, join.err)
		}
		if join.rounds != 2 {
			t.Fatalf("rootDown=%v: join chase took %d rounds (oracle %d), want 2: one to close the chain, one to confirm",
				rootDown, join.rounds, oracle.rounds)
		}
		sameChase(t, fmt.Sprintf("rootDown=%v", rootDown), g, join.res, oracle.res)
		if got := g.NumNodes() - join.res.Materialize().NumNodes(); got != depth {
			t.Fatalf("rootDown=%v: merged %d nodes, want %d", rootDown, got, depth)
		}
		t.Logf("rootDown=%v: oracle %d rounds, join %d", rootDown, oracle.rounds, join.rounds)
	}
}

// catalogKeys is Example 1(3)'s recursive key set over album -by-> artist:
// ψ1 (title + artist id ⇒ album), ψ2 (title + release ⇒ album) and ψ3
// (name + album id ⇒ artist).
func catalogKeys(t *testing.T) ged.Set {
	t.Helper()
	mk := func(name string, q *pattern.Pattern, x0 pattern.Var, attrOf map[pattern.Var][]graph.Attr) *ged.GED {
		k, err := ged.NewGKey(name, q, x0, func(x, fx pattern.Var) []ged.Literal {
			as, ok := attrOf[x]
			if !ok {
				return []ged.Literal{ged.IDLit(x, fx)}
			}
			var ls []ged.Literal
			for _, a := range as {
				ls = append(ls, ged.VarLit(x, a, fx, a))
			}
			return ls
		})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	by := func() *pattern.Pattern {
		q := pattern.New()
		q.AddVar("x", "album").AddVar("z", "artist").AddEdge("x", "by", "z")
		return q
	}
	album := pattern.New()
	album.AddVar("x", "album")
	return ged.Set{
		mk("psi1", by(), "x", map[pattern.Var][]graph.Attr{"x": {"title"}}),
		mk("psi2", album, "x", map[pattern.Var][]graph.Attr{"x": {"title", "release"}}),
		mk("psi3", by(), "z", map[pattern.Var][]graph.Attr{"z": {"name"}}),
	}
}

// TestJoinChaseRecursiveKeyChain: a catalog in which ψ2 identifies two
// albums, which lets ψ3 identify their artists, which lets ψ1 identify
// the artists' other same-titled albums (one lacks its release year, so
// ψ2 is no help), whose co-credited artists ψ3 can identify only then — each
// step makes another pair's antecedent true only afterwards. The joined
// chase reaches the oracle's fixpoint within the oracle's round count.
func TestJoinChaseRecursiveKeyChain(t *testing.T) {
	g := graph.New()
	artist := func(name string) graph.NodeID {
		return g.AddNodeAttrs("artist", map[graph.Attr]graph.Value{"name": graph.String(name)})
	}
	album := func(title string, release int, by ...graph.NodeID) graph.NodeID {
		id := g.AddNodeAttrs("album", map[graph.Attr]graph.Value{"title": graph.String(title)})
		if release != 0 {
			g.SetAttr(id, "release", graph.Int(release))
		}
		for _, a := range by {
			g.AddEdge(id, "by", a)
		}
		return id
	}
	// Added in the order the chain resolves them last-to-first.
	guest1, guest2 := artist("guest"), artist("guest")
	lead1, lead2 := artist("lead"), artist("lead")
	album("duet", 1991, lead1, guest1)
	album("duet", 0, lead2, guest2) // release unknown: ψ2 cannot tell
	album("debut", 1989, lead1)
	album("debut", 1989, lead2)
	album("solo", 2001, guest1) // keeps the catalog from collapsing further
	sigma := catalogKeys(t)

	ctx := context.Background()
	oracle := tallyChase(ctx, g, sigma, nil, 0, true)
	if oracle.err != nil || !oracle.res.Consistent() {
		t.Fatalf("oracle: err %v, consistent %v", oracle.err, oracle.res.Consistent())
	}
	if oracle.rounds < 3 {
		t.Fatalf("oracle converged in %d rounds: the catalog is no chain", oracle.rounds)
	}
	join := tallyChase(ctx, g, sigma, nil, oracle.rounds, false)
	if join.err != nil {
		t.Fatalf("join chase under the oracle's %d rounds: %v", oracle.rounds, join.err)
	}
	sameChase(t, "catalog", g, join.res, oracle.res)
	// debut×2, lead×2, duet×2 and guest×2 each collapse into one node.
	if got := g.NumNodes() - join.res.Materialize().NumNodes(); got != 4 {
		t.Fatalf("merged %d nodes, want 4", got)
	}
	if !join.res.Eq.SameNode(guest1, guest2) {
		t.Fatal("the end of the chain (the guests) was not identified")
	}
}

// countdownCtx reports cancellation from its k-th Err call on.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestJoinChaseCancelMidJoin cuts a joined chase at every point it polls
// its context — while a build side is materialized, between passes, in
// the middle of a probe — and requires the cancellation error with a
// partial result that is consistent, carries a coercion, materializes,
// and holds nothing the full chase does not.
func TestJoinChaseCancelMidJoin(t *testing.T) {
	g := graph.New()
	for i := 0; i < 12; i++ {
		a := g.AddNodeAttrs("artist", map[graph.Attr]graph.Value{"name": graph.String(fmt.Sprintf("artist%d", i/2))})
		for j := 0; j < 2; j++ {
			al := g.AddNodeAttrs("album", map[graph.Attr]graph.Value{
				"title": graph.String(fmt.Sprintf("album%d-%d", i/2, j)), "release": graph.Int(1980 + j)})
			g.AddEdge(al, "by", a)
		}
	}
	sigma := catalogKeys(t)
	full, err := RunCtx(context.Background(), g, sigma, nil, 0)
	if err != nil || !full.Consistent() || len(full.Steps) == 0 {
		t.Fatalf("full chase: err %v, consistent %v, %d steps", err, full.Consistent(), len(full.Steps))
	}
	cut, partial := 0, 0
	for k := 0; ; k++ {
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(int64(k))
		res, err := RunCtx(ctx, g, sigma, nil, 0)
		if err == nil {
			if len(res.Steps) != len(full.Steps) {
				t.Fatalf("countdown %d: uncut chase applied %d steps, want %d", k, len(res.Steps), len(full.Steps))
			}
			break
		}
		cut++
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("countdown %d: error %v, want context.Canceled", k, err)
		}
		if !res.Consistent() || res.Coercion() == nil {
			t.Fatalf("countdown %d: partial result consistent=%v coercion=%v", k, res.Consistent(), res.Coercion())
		}
		if m := res.Materialize(); m.NumNodes() != len(res.Coercion().RepOf) {
			t.Fatalf("countdown %d: materialized %d nodes for %d classes", k, m.NumNodes(), len(res.Coercion().RepOf))
		}
		for _, a := range g.Nodes() {
			for _, b := range g.Nodes() {
				if res.Eq.SameNode(a, b) && !full.Eq.SameNode(a, b) {
					t.Fatalf("countdown %d: partial chase identified %d and %d, the full one does not", k, a, b)
				}
			}
		}
		if n := len(res.Steps); n > 0 && n < len(full.Steps) {
			partial++
		}
	}
	if cut < 10 || partial == 0 {
		t.Fatalf("%d cut runs, %d of them mid-chase: the countdown never landed inside a join", cut, partial)
	}
}

// TestJoinChaseAbortKeepsCoercion: a chase stopped between rounds — by
// its round bound after a round that merged nodes, or by a context that
// was cancelled before it began — still hands out, on request, the one
// coercion of the relation it reached, and its quotient.
func TestJoinChaseAbortKeepsCoercion(t *testing.T) {
	g := graph.New()
	for i := 0; i < 6; i++ {
		a := g.AddNodeAttrs("artist", map[graph.Attr]graph.Value{"name": graph.String(fmt.Sprintf("artist%d", i/2))})
		al := g.AddNodeAttrs("album", map[graph.Attr]graph.Value{"title": graph.String(fmt.Sprintf("album%d", i/2)), "release": graph.Int(1980)})
		g.AddEdge(al, "by", a)
	}
	sigma := catalogKeys(t)
	check := func(at string, got chaseTally, wantErr error, merged int) {
		t.Helper()
		if !errors.Is(got.err, wantErr) {
			t.Fatalf("%s: error %v, want %v", at, got.err, wantErr)
		}
		if got.quotients != 0 {
			t.Fatalf("%s: %d quotients built, want none", at, got.quotients)
		}
		if n := g.NumNodes() - got.res.Materialize().NumNodes(); n != merged {
			t.Fatalf("%s: %d nodes merged, want %d", at, n, merged)
		}
		co := lazyCoercion(t, at, got)
		snap, repOf := got.res.Quotient()
		if !reflect.DeepEqual(repOf, co.RepOf) || snapString(snap) != snapString(co.Graph.Freeze()) {
			t.Fatalf("%s: Quotient() is not the coercion without its attributes", at)
		}
	}
	// Round 1 merges every duplicate; the bound stops the confirming round.
	check("round bound", tallyChase(context.Background(), g, sigma, nil, 1, false), ErrDepthExceeded, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got := tallyChase(ctx, g, sigma, nil, 0, false)
	check("cancelled", got, context.Canceled, 0)
	if got.res.Coercion().Graph.String() != g.String() {
		t.Fatal("cancelled: the coercion of Eq0 is not the graph itself")
	}
}
