package chase

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
)

// The chase result is Eq; its coercion, quotient and materialized witness
// are built on request from the snapshot the chase froze and Eq's tables.

// snapString renders a snapshot's nodes and edges, labels resolved and
// edges in graph.CompareEdges order, so snapshots with different symbol
// tables compare by content. Attributes are left out.
func snapString(s *graph.Snapshot) string {
	var b strings.Builder
	var edges []graph.Edge
	for _, id := range s.Nodes() {
		fmt.Fprintf(&b, "n%d:%s\n", id, s.Label(id))
		edges = s.AppendOutEdges(edges, id)
	}
	slices.SortFunc(edges, graph.CompareEdges)
	for _, e := range edges {
		fmt.Fprintf(&b, "n%d -%s-> n%d\n", e.Src, e.Label, e.Dst)
	}
	return b.String()
}

// TestChaseCoercionLazy: a chase whose caller reads only the verdict and
// the trace builds no coercion; the first Coercion call builds one and
// the second returns it. An invalid chase has neither a coercion nor a
// quotient, and asking builds nothing.
func TestChaseCoercionLazy(t *testing.T) {
	ctx := context.Background()
	g, _ := example4Graph()
	got := tallyChase(ctx, g, ged.Set{phi1()}, nil, 0, false)
	if got.err != nil || !got.res.Consistent() || len(got.res.Steps) != 1 {
		t.Fatalf("err %v, consistent %v, %d steps", got.err, got.res.Consistent(), len(got.res.Steps))
	}
	if co := lazyCoercion(t, "example 4", got); co.Graph.NumNodes() != 3 {
		t.Fatalf("coercion has %d nodes, want 3", co.Graph.NumNodes())
	}

	bad := tallyChase(ctx, g, ged.Set{phi1(), phi2()}, nil, 0, false)
	if bad.res.Consistent() {
		t.Fatal("Σ2 chase must be invalid")
	}
	if co := bad.res.Coercion(); co != nil {
		t.Fatalf("invalid chase: Coercion() = %p, want nil", co)
	}
	if snap, repOf := bad.res.Quotient(); snap != nil || repOf != nil {
		t.Fatal("invalid chase: Quotient() is not nil")
	}
	if n := bad.count("ged_chase_coercions_total"); n != 0 {
		t.Fatalf("invalid chase: %d coercions counted", n)
	}
}

// TestChaseCoercionConcurrent: goroutines asking one result for its
// coercion at once share the one coercion built for them.
func TestChaseCoercionConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	for trial := 0; trial < 20; trial++ {
		g, sigma := mergingInstance(rng)
		got := tallyChase(context.Background(), g, sigma, nil, 0, false)
		if !got.res.Consistent() {
			continue
		}
		cos := make([]*Coercion, 8)
		var wg sync.WaitGroup
		for i := range cos {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cos[i] = got.res.Coercion()
			}()
		}
		wg.Wait()
		for i, co := range cos {
			if co == nil || co != cos[0] {
				t.Fatalf("trial %d: goroutine %d got coercion %p, goroutine 0 %p", trial, i, co, cos[0])
			}
		}
		if n := got.count("ged_chase_coercions_total"); n != 1 {
			t.Fatalf("trial %d: %d coercions counted, want 1", trial, n)
		}
	}
}

// TestChaseCoercionAfterInputMutation: growing the chased graph after
// the chase — nodes, edges, attributes — changes nothing a result builds
// on request: coercion, witness and quotient all equal those of the same
// chase over an untouched clone. Round bounds cut some chases after a
// round that identified nodes, so some quotients are built on request.
func TestChaseCoercionAfterInputMutation(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(239))
	checked, stale := 0, 0
	for trial := 0; trial < 300; trial++ {
		at := fmt.Sprintf("trial %d", trial)
		g, sigma := mergingInstance(rng)
		clean := g.Clone()
		maxRounds := trial % 3
		res, err := RunCtx(ctx, g, sigma, nil, maxRounds)
		want, wantErr := RunCtx(ctx, clean, sigma, nil, maxRounds)
		if err != wantErr {
			t.Fatalf("%s: errors %v / %v", at, err, wantErr)
		}
		if !res.Consistent() {
			continue
		}
		if res.host.unions != res.Eq.nodeUnions {
			stale++
		}
		x := g.AddNodeAttrs(graph.Wildcard, map[graph.Attr]graph.Value{"k": graph.Int(0)})
		g.AddEdge(0, "e", x)
		g.AddEdge(x, graph.Wildcard, 1)
		g.AddEdge(1, "e", 0)
		g.SetAttr(0, "k", graph.Int(-7))
		g.SetAttr(1, "w", graph.String("new"))

		if a, b := res.Coercion().Graph.String(), want.Coercion().Graph.String(); a != b {
			t.Fatalf("%s: coercion after mutating the input:\n%s\nuntouched:\n%s", at, a, b)
		}
		if a, b := res.Materialize().String(), want.Materialize().String(); a != b {
			t.Fatalf("%s: witness after mutating the input:\n%s\nuntouched:\n%s", at, a, b)
		}
		snap, repOf := res.Quotient()
		wantSnap, wantRepOf := want.Quotient()
		if !reflect.DeepEqual(repOf, wantRepOf) || snapString(snap) != snapString(wantSnap) {
			t.Fatalf("%s: quotient after mutating the input differs from the untouched one's", at)
		}
		if !reflect.DeepEqual(repOf, res.Coercion().RepOf) || snapString(snap) != snapString(res.Coercion().Graph.Freeze()) {
			t.Fatalf("%s: Quotient() is not the coercion without its attributes", at)
		}
		checked++
	}
	t.Logf("%d consistent results checked, %d of them with a quotient built on request", checked, stale)
	if checked < 100 || stale < 10 {
		t.Fatal("the generator lost its bite")
	}
}

// wildcardEdgeInstance is mergingInstance with about half its edges
// wildcard-labeled, and as many wildcard edges again as it has nodes, so
// that merged classes carry parallel wildcard edges — each of which
// needs a fresh label in the witness, once.
func wildcardEdgeInstance(rng *rand.Rand) (*graph.Graph, ged.Set) {
	g, sigma := mergingInstance(rng)
	w := graph.New()
	for _, id := range g.Nodes() {
		w.AddNodeAttrs(g.Label(id), maps.Collect(g.Attrs(id)))
	}
	for _, e := range g.Edges() {
		if rng.Intn(2) == 0 {
			e.Label = graph.Wildcard
		}
		w.AddEdge(e.Src, e.Label, e.Dst)
	}
	n := w.NumNodes()
	for i := 0; i < n; i++ {
		w.AddEdge(graph.NodeID(rng.Intn(n)), graph.Wildcard, graph.NodeID(rng.Intn(n)))
	}
	return w, sigma
}

// wildcardEdges counts the wildcard-labeled edges of g.
func wildcardEdges(g *graph.Graph) int {
	n := 0
	for _, e := range g.Edges() {
		if e.Label == graph.Wildcard {
			n++
		}
	}
	return n
}

// TestMaterializeMatchesCoercionPath: the witness Materialize builds
// straight from Eq is byte for byte the one read off the coercion graph
// — same class order, same fresh labels, same placeholder values — on
// every generator's consistent chases, including ones where merges fold
// parallel wildcard edges and ones a round bound cut short.
func TestMaterializeMatchesCoercionPath(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func(*rand.Rand) (*graph.Graph, ged.Set)
		seed int64
	}{
		{"random", randomInstance, 241},
		{"merging", mergingInstance, 251},
		{"wildcard-edge", wildcardEdgeInstance, 257},
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		checked, folded := 0, 0
		for trial := 0; trial < 300; trial++ {
			g, sigma := tc.gen(rng)
			res, err := RunCtx(context.Background(), g, sigma, nil, trial%3)
			if err != nil && !errors.Is(err, ErrDepthExceeded) {
				t.Fatalf("%s trial %d: %v", tc.name, trial, err)
			}
			if !res.Consistent() {
				continue
			}
			got, want := res.Materialize().String(), MaterializeViaCoercion(res).String()
			if got != want {
				t.Fatalf("%s trial %d: Materialize:\n%s\nvia the coercion:\n%s", tc.name, trial, got, want)
			}
			checked++
			if wildcardEdges(res.Coercion().Graph) < wildcardEdges(g) {
				folded++
			}
		}
		t.Logf("%s: %d consistent chases, %d folding parallel wildcard edges", tc.name, checked, folded)
		if checked < 100 || (tc.name == "wildcard-edge" && folded < 20) {
			t.Fatalf("%s: the generator lost its bite", tc.name)
		}
	}
}
