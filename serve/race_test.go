package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gedlib"
	"gedlib/workload"
)

// canonViolations renders a violation set order-independently (the
// bindings are sorted by variable so rule sets built programmatically
// and parsed from the DSL compare equal).
func canonViolations(vs []gedlib.Violation) []string {
	out := make([]string, 0, len(vs))
	for _, v := range vs {
		parts := make([]string, 0, len(v.Match))
		for _, x := range v.GED.Pattern.Vars() {
			parts = append(parts, fmt.Sprintf("%s=%d", x, v.Match[x]))
		}
		sort.Strings(parts)
		out = append(out, v.GED.Name+":"+strings.Join(parts, ":"))
	}
	sort.Strings(out)
	return out
}

// twinGraph is an oracle for the write path that shares none of its
// state: a mutable graph, loaded from the same JSON as the entry, that
// applies every op a flush accepts, in the order the flush resolves
// them (through opTestHook).
type twinGraph struct {
	g   *gedlib.Graph
	ids map[string]gedlib.NodeID
}

// followWrites loads data into a twin that follows the entry's flushes
// until the test ends.
func followWrites(t *testing.T, data []byte) *twinGraph {
	t.Helper()
	g, ids, err := gedlib.LoadGraph(data)
	if err != nil {
		t.Fatal(err)
	}
	tw := &twinGraph{g: g, ids: ids}
	opTestHook = tw.apply
	t.Cleanup(func() { opTestHook = nil })
	return tw
}

func (tw *twinGraph) apply(op Op) {
	value := func(raw any) gedlib.Value {
		v, err := jsonValue(raw)
		if err != nil {
			panic(err) // the flush accepted the op
		}
		return v
	}
	switch op.Op {
	case "add_node":
		attrs := make(map[gedlib.Attr]gedlib.Value, len(op.Attrs))
		for a, raw := range op.Attrs {
			attrs[gedlib.Attr(a)] = value(raw)
		}
		tw.ids[op.ID] = tw.g.AddNodeAttrs(gedlib.Label(op.Label), attrs)
	case "add_edge":
		tw.g.AddEdge(tw.ids[op.Src], gedlib.Label(op.Label), tw.ids[op.Dst])
	case "set_attr":
		tw.g.SetAttr(tw.ids[op.ID], gedlib.Attr(op.Attr), value(op.Value))
	}
}

// TestConcurrentReadWriteOracle hammers one catalog entry with parallel
// mutators and parallel validators (run under -race in CI) and checks
// two equivalences:
//
//   - per view, online: the maintained violation set a reader is handed
//     must equal a from-scratch recomputation over that same immutable
//     snapshot (the incremental pipeline cannot drift from the direct
//     one);
//   - at quiesce, against a serial oracle: the final published set must
//     equal what a fresh engine computes over the final graph.
func TestConcurrentReadWriteOracle(t *testing.T) {
	g, _ := workload.KnowledgeBase(17, 50, 0.2)
	data, err := gedlib.MarshalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := NewCatalog(Config{MaxDelay: time.Millisecond, FlushOps: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	ent, err := cat.Create("kb", data)
	if err != nil {
		t.Fatal(err)
	}
	twin := followWrites(t, data)
	sigma := gedlib.RuleSet{
		workload.PaperPhi1(), workload.PaperPhi2(),
		workload.PaperPhi3(), workload.PaperPhi4(),
	}
	if _, err := ent.RegisterRules(context.Background(), gedlib.FormatRules(sigma)); err != nil {
		t.Fatal(err)
	}
	numNodes := ent.CurrentView().Snap.NumNodes()

	const (
		writers         = 4
		writesPerWriter = 25
		readers         = 4
		readsPerReader  = 40
		opsPerWrite     = 3
	)
	types := []string{"programmer", "psychologist", "video game"}
	var wg sync.WaitGroup
	var failed atomic.Bool
	ctx := context.Background()

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < writesPerWriter; i++ {
				ops := make([]Op, 0, opsPerWrite)
				for k := 0; k < opsPerWrite; k++ {
					node := fmt.Sprintf("n%d", rng.Intn(numNodes))
					switch rng.Intn(3) {
					case 0:
						ops = append(ops, Op{Op: "set_attr", ID: node, Attr: "type", Value: types[rng.Intn(len(types))]})
					case 1:
						ops = append(ops, Op{Op: "set_attr", ID: node, Attr: "name", Value: fmt.Sprintf("renamed%d-%d", w, i)})
					default:
						dst := fmt.Sprintf("n%d", rng.Intn(numNodes))
						ops = append(ops, Op{Op: "add_edge", Src: node, Label: "create", Dst: dst})
					}
				}
				res, err := ent.Mutate(ctx, ops)
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					failed.Store(true)
					return
				}
				if res.Applied != len(ops) {
					t.Errorf("writer %d: applied %d/%d ops: %v", w, res.Applied, len(ops), res.OpErrors)
					failed.Store(true)
					return
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastEpoch uint64
			for i := 0; i < readsPerReader; i++ {
				view := ent.CurrentView()
				if view.Epoch < lastEpoch {
					t.Errorf("reader %d: epoch went backwards %d -> %d", r, lastEpoch, view.Epoch)
					failed.Store(true)
					return
				}
				lastEpoch = view.Epoch
				// Recompute over the same immutable snapshot: must match
				// the maintained set exactly.
				direct, err := view.Val.RunCtx(ctx, 0)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					failed.Store(true)
					return
				}
				a, b := canonViolations(view.Violations), canonViolations(direct)
				if len(a) != len(b) {
					t.Errorf("reader %d epoch %d: maintained %d violations, direct %d", r, view.Epoch, len(a), len(b))
					failed.Store(true)
					return
				}
				for j := range a {
					if a[j] != b[j] {
						t.Errorf("reader %d epoch %d: sets differ at %d: %s vs %s", r, view.Epoch, j, a[j], b[j])
						failed.Store(true)
						return
					}
				}
			}
		}(r)
	}

	wg.Wait()
	if failed.Load() {
		return
	}

	// Quiesce: drain any pending window, then compare the published set
	// against a completely fresh engine over the twin graph (the serial
	// oracle — no shared caches, no incremental state).
	if _, err := ent.Mutate(ctx, []Op{{Op: "set_attr", ID: "n0", Attr: "name", Value: "quiesce"}}); err != nil {
		t.Fatal(err)
	}
	view := ent.CurrentView()
	oracle, err := gedlib.New().Validate(ctx, twin.g, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if version := twin.g.Version(); view.Version != version {
		t.Fatalf("final view at version %d, twin graph at %d", view.Version, version)
	}
	a, b := canonViolations(view.Violations), canonViolations(oracle)
	if len(a) != len(b) {
		t.Fatalf("final maintained set has %d violations, serial oracle %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("final sets differ at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestConcurrentMultiTenant: parallel traffic across more tenants than
// any per-engine bound used to hold (20 > the old cache default of 16)
// stays correct per tenant, and — each entry owning its session — no
// flush ever re-freezes a graph.
func TestConcurrentMultiTenant(t *testing.T) {
	cat, err := NewCatalog(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	sigma := gedlib.RuleSet{workload.PaperPhi1()}
	src := gedlib.FormatRules(sigma)

	const tenants = 20
	ents := make([]*GraphEntry, tenants)
	sizes := make([]int, tenants)
	for i := range ents {
		g, _ := workload.KnowledgeBase(int64(20+i), 25, 0.2)
		data, err := gedlib.MarshalGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		ent, err := cat.Create(fmt.Sprintf("t%d", i), data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ent.RegisterRules(context.Background(), src); err != nil {
			t.Fatal(err)
		}
		ents[i] = ent
		sizes[i] = ent.CurrentView().Snap.NumNodes()
	}
	freezes := cat.reg.Counter("ged_engine_snapshot_cache_total", "", "outcome", "freeze")
	before := freezes.Value()

	var wg sync.WaitGroup
	ctx := context.Background()
	for i, ent := range ents {
		wg.Add(1)
		go func(i int, ent *GraphEntry) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for k := 0; k < 15; k++ {
				node := fmt.Sprintf("n%d", rng.Intn(sizes[i]))
				if _, err := ent.Mutate(ctx, []Op{
					{Op: "set_attr", ID: node, Attr: "type", Value: "programmer"},
				}); err != nil {
					t.Errorf("tenant %d: %v", i, err)
					return
				}
				view := ent.CurrentView()
				direct, err := view.Val.RunCtx(ctx, 0)
				if err != nil {
					t.Errorf("tenant %d: %v", i, err)
					return
				}
				if len(direct) != len(view.Violations) {
					t.Errorf("tenant %d: maintained %d, direct %d", i, len(view.Violations), len(direct))
					return
				}
			}
		}(i, ent)
	}
	wg.Wait()

	if n := freezes.Value() - before; n != 0 {
		t.Fatalf("%d graph freezes during the write phase, want 0", n)
	}
}

// cancelAfter is a context whose Err turns context.Canceled after n
// calls: a cancellation that lands deterministically past an up-front
// check, inside the work that follows it.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestRegisterRulesCancelKeepsRules: a rule registration cancelled
// while it seeds under the new rules changes nothing — neither the
// published view nor the rules later flushes maintain. It covers both
// ways the seed can fail: inside Session.SetRules (the session already
// maintains a set) and in the Apply after it, whose rollback restores
// the old rules (the session does not yet).
func TestRegisterRulesCancelKeepsRules(t *testing.T) {
	ctx := context.Background()
	a := gedlib.FormatRules(gedlib.RuleSet{workload.PaperPhi1(), workload.PaperPhi4()})
	b := gedlib.FormatRules(gedlib.RuleSet{workload.PaperPhi2(), workload.PaperPhi3()})
	for _, seeded := range []bool{true, false} {
		t.Run(fmt.Sprintf("seeded=%v", seeded), func(t *testing.T) {
			cat, err := NewCatalog(Config{MaxDelay: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer cat.Close()
			g, _ := workload.KnowledgeBase(29, 30, 0.3)
			data, err := gedlib.MarshalGraph(g)
			if err != nil {
				t.Fatal(err)
			}
			ent, err := cat.Create("kb", data)
			if err != nil {
				t.Fatal(err)
			}
			before, err := ent.RegisterRules(ctx, a)
			if err != nil {
				t.Fatal(err)
			}
			if !seeded {
				ent.mu.Lock()
				var g *gedlib.Graph
				if g, err = gedlib.ImportImage(ent.sess.Snapshot().Image(nil)); err == nil {
					ent.sess, err = cat.eng.Open(ctx, g, ent.sigma)
				}
				ent.mu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
			}
			cctx := &cancelAfter{Context: ctx}
			cctx.n.Store(1) // SetRules' up-front check passes
			if _, err := ent.RegisterRules(cctx, b); !errors.Is(err, context.Canceled) {
				t.Fatalf("RegisterRules cancelled mid-seed returned %v", err)
			}
			if cctx.n.Load() >= 0 {
				t.Fatal("the cancellation never reached the seed")
			}
			if ent.CurrentView() != before {
				t.Fatal("a failed registration published a view")
			}

			if _, err := ent.Mutate(ctx, []Op{{Op: "set_attr", ID: "n0", Attr: "type", Value: "programmer"}}); err != nil {
				t.Fatal(err)
			}
			view := ent.CurrentView()
			if gedlib.FormatRules(view.Rules) != a {
				t.Fatalf("rules after a failed registration:\n%s\nwant:\n%s", gedlib.FormatRules(view.Rules), a)
			}
			direct, err := gedlib.NewSnapshotValidator(view.Snap, view.Rules).RunCtx(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := canonViolations(view.Violations), canonViolations(direct); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Fatalf("maintained %d violations after a failed registration, direct %d", len(got), len(want))
			}
		})
	}
}
