package reason

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"gedlib/internal/ged"
	"gedlib/internal/gen"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// mutateReason applies a few random mutations matching the vocabulary
// of randomGraph/randomSigma (labels a/b, attrs p/q, edge label e).
func mutateReason(g *graph.Graph, rng *rand.Rand, nOps int) {
	labels := []graph.Label{"a", "b"}
	attrs := []graph.Attr{"p", "q"}
	for i := 0; i < nOps; i++ {
		switch rng.Intn(6) {
		case 0:
			g.AddNode(labels[rng.Intn(len(labels))])
		case 1, 2:
			g.AddEdge(graph.NodeID(rng.Intn(g.NumNodes())), "e", graph.NodeID(rng.Intn(g.NumNodes())))
		default:
			g.SetAttr(graph.NodeID(rng.Intn(g.NumNodes())), attrs[rng.Intn(2)], graph.Int(rng.Intn(3)))
		}
	}
}

// TestViolationStoreEqualsFullValidate: a ViolationStore maintained
// through a random delta stream reports exactly the violations a full
// from-scratch validation reports, after every single delta.
func TestViolationStoreEqualsFullValidate(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(311))
	for trial := 0; trial < 40; trial++ {
		sigma := randomSigma(rng)
		g := randomGraph(rng)
		st, err := NewViolationStoreCtx(ctx, NewValidatorOn(g.Freeze(), sigma))
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 8; step++ {
			from := st.Snapshot().SourceVersion()
			mutateReason(g, rng, 1+rng.Intn(4))
			d := g.DeltaSince(from)
			if err := st.Apply(ctx, st.Snapshot().Apply(d), d.TouchedNodes()); err != nil {
				t.Fatal(err)
			}
			want := canonViolations(validate(g, sigma, 0), sigma)
			got := canonViolations(st.Violations(), sigma)
			if len(want) != len(got) {
				t.Fatalf("trial %d step %d: store has %d violations, full validate %d",
					trial, step, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("trial %d step %d: violation sets differ at %d: %s vs %s",
						trial, step, i, got[i], want[i])
				}
			}
		}
	}
}

// TestViolationStoreRefreshesLiteral: when an update fixes the recorded
// failing literal but breaks a different one of the same match, the
// maintained entry must report the literal that fails now, exactly as a
// fresh validation would.
func TestViolationStoreRefreshesLiteral(t *testing.T) {
	ctx := context.Background()
	g := graph.New()
	n := g.AddNodeAttrs("a", map[graph.Attr]graph.Value{"p": graph.Int(1), "q": graph.Int(0)})
	q := patternOf(t)
	d := ged.New("both", q, nil, []ged.Literal{
		ged.ConstLit("x", "p", graph.Int(1)),
		ged.ConstLit("x", "q", graph.Int(2)),
	})
	sigma := ged.Set{d}
	st, err := NewViolationStoreCtx(ctx, NewValidatorOn(g.Freeze(), sigma))
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Violations(); len(got) != 1 || got[0].Literal != &d.Y[1] {
		t.Fatalf("seed: want one violation failing %s, got %+v", d.Y[1], got)
	}
	// Fix q (the recorded literal) and break p in one delta.
	from := st.Snapshot().SourceVersion()
	g.SetAttr(n, "q", graph.Int(2))
	g.SetAttr(n, "p", graph.Int(0))
	dl := g.DeltaSince(from)
	if err := st.Apply(ctx, st.Snapshot().Apply(dl), dl.TouchedNodes()); err != nil {
		t.Fatal(err)
	}
	got := st.Violations()
	if len(got) != 1 {
		t.Fatalf("want one violation, got %d", len(got))
	}
	if got[0].Literal != &d.Y[0] {
		t.Fatalf("stale literal: store reports %s, but %s is what fails now", got[0].Literal, d.Y[0])
	}
	want := validate(g, sigma, 0)
	if len(want) != 1 || want[0].Literal != got[0].Literal {
		t.Fatalf("store disagrees with fresh validation: %+v vs %+v", got, want)
	}
}

func patternOf(t *testing.T) *pattern.Pattern {
	t.Helper()
	q := pattern.New()
	q.AddVar("x", "a")
	return q
}

// TestViolationStoreOnWorkload drives the store over the knowledge-base
// workload: break and repair rules repeatedly, comparing against full
// validation each time.
func TestViolationStoreOnWorkload(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(313))
	g, _ := gen.KnowledgeBase(29, 40, 0.1)
	sigma := ged.Set{gen.PaperPhi1(), gen.PaperPhi2(), gen.PaperPhi3(), gen.PaperPhi4()}
	st, err := NewViolationStoreCtx(ctx, NewValidatorOn(g.Freeze(), sigma))
	if err != nil {
		t.Fatal(err)
	}
	types := []graph.Value{
		graph.String("programmer"), graph.String("video game"), graph.String("psychologist"),
	}
	for step := 0; step < 25; step++ {
		from := st.Snapshot().SourceVersion()
		for k := 0; k < 1+rng.Intn(3); k++ {
			id := graph.NodeID(rng.Intn(g.NumNodes()))
			switch rng.Intn(3) {
			case 0:
				g.SetAttr(id, "type", types[rng.Intn(len(types))])
			case 1:
				g.SetAttr(id, "name", graph.String("renamed"))
			default:
				g.AddEdge(id, "capital", graph.NodeID(rng.Intn(g.NumNodes())))
			}
		}
		d := g.DeltaSince(from)
		if err := st.Apply(ctx, st.Snapshot().Apply(d), d.TouchedNodes()); err != nil {
			t.Fatal(err)
		}
		want := canonViolations(validate(g, sigma, 0), sigma)
		got := canonViolations(st.Violations(), sigma)
		if len(want) != len(got) {
			t.Fatalf("step %d: store %d vs full %d", step, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("step %d: sets differ at %d", step, i)
			}
		}
	}
}

// TestViolationStoreViewBytes: after an Apply that changes the set, the
// rebuilt view is one slice of |V| three-word violations and nothing
// per violation beyond it.
func TestViolationStoreViewBytes(t *testing.T) {
	ctx := context.Background()
	g := graph.New()
	for i := 0; i < 2000; i++ {
		g.AddNode("a") // every node violates d
	}
	d := ged.New("d", patternOf(t), nil, []ged.Literal{ged.ConstLit("x", "p", graph.Int(1))})
	st, err := NewViolationStoreCtx(ctx, NewValidatorOn(g.Freeze(), ged.Set{d}))
	if err != nil {
		t.Fatal(err)
	}
	size := 3 * int(unsafe.Sizeof(uintptr(0)))
	for round := 0; round < 5; round++ {
		from := st.Snapshot().SourceVersion()
		g.AddNode("a")
		dl := g.DeltaSince(from)
		if err := st.Apply(ctx, st.Snapshot().Apply(dl), dl.TouchedNodes()); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		vs := st.Violations()
		runtime.ReadMemStats(&after)
		// A large allocation is rounded up to whole 8 KB pages.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(len(vs)*size+8192); got > bound {
			t.Fatalf("round %d: the view of %d violations allocated %d B, want at most %d", round, len(vs), got, bound)
		}
		if len(vs) != 2001+round {
			t.Fatalf("round %d: %d violations, want %d", round, len(vs), 2001+round)
		}
	}
}
