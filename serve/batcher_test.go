package serve

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gedlib"
	"gedlib/workload"
)

func newTestEntry(t *testing.T, cfg Config) (*Catalog, *GraphEntry) {
	t.Helper()
	cat, err := NewCatalog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cat.Close)
	ent, err := cat.Create("g", []byte(`{
		"nodes": [
			{"id": "game", "label": "product", "attrs": {"type": "video game", "name": "GB"}},
			{"id": "dev", "label": "person", "attrs": {"type": "artist"}}
		],
		"edges": [{"src": "dev", "label": "create", "dst": "game"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	src := `ged phi1 on (x:person)-[create]->(y:product) {
		when y.type = "video game"
		then x.type = "programmer"
	}`
	if _, err := ent.RegisterRules(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	return cat, ent
}

// TestBatcherCoalesces: concurrent writers land in fewer flushes than
// requests, and every writer observes its own write in the view it is
// told about.
func TestBatcherCoalesces(t *testing.T) {
	// A long deadline forces coalescing: the first write opens a 50ms
	// window and the rest of the burst joins it.
	_, ent := newTestEntry(t, Config{MaxDelay: 50 * time.Millisecond, FlushOps: 1 << 20})
	const writers = 16
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := ent.Mutate(context.Background(), []Op{
				{Op: "set_attr", ID: "dev", Attr: "type", Value: "programmer"},
			})
			if err != nil {
				t.Error(err)
				return
			}
			if res.Applied != 1 {
				t.Errorf("applied %d ops, want 1", res.Applied)
			}
		}()
	}
	wg.Wait()
	s := ent.Stats()
	if s.Flushes == 0 || s.FlushedOps != writers {
		t.Fatalf("flushed %d ops in %d flushes, want %d ops", s.FlushedOps, s.Flushes, writers)
	}
	if s.Flushes >= writers {
		t.Fatalf("no coalescing: %d flushes for %d writes", s.Flushes, writers)
	}
	if s.AvgBatchOps <= 1 {
		t.Fatalf("avg batch %.2f ops, want > 1", s.AvgBatchOps)
	}
	// The writes repaired the planted violation; the published view
	// must reflect the flushed state.
	if view := ent.CurrentView(); len(view.Violations) != 0 {
		t.Fatalf("view still reports %d violations after repair", len(view.Violations))
	}
}

// TestBatcherDeadlineFlush: a lone write flushes by deadline, not never.
func TestBatcherDeadlineFlush(t *testing.T) {
	_, ent := newTestEntry(t, Config{MaxDelay: 5 * time.Millisecond, FlushOps: 1 << 20})
	start := time.Now()
	if _, err := ent.Mutate(context.Background(), []Op{
		{Op: "set_attr", ID: "dev", Attr: "name", Value: "Ada"},
	}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("deadline flush took %v", d)
	}
}

// TestBatcherSizeTriggerBeatsDeadline: hitting FlushOps flushes
// immediately, well before a long deadline.
func TestBatcherSizeTriggerBeatsDeadline(t *testing.T) {
	_, ent := newTestEntry(t, Config{MaxDelay: 10 * time.Second, FlushOps: 2})
	start := time.Now()
	if _, err := ent.Mutate(context.Background(), []Op{
		{Op: "set_attr", ID: "dev", Attr: "name", Value: "Grace"},
		{Op: "set_attr", ID: "game", Attr: "name", Value: "GB2"},
	}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("size-triggered flush waited for the deadline: %v", d)
	}
}

// TestBatcherBackpressure: a full queue rejects with ErrQueueFull
// instead of buffering unboundedly.
func TestBatcherBackpressure(t *testing.T) {
	_, ent := newTestEntry(t, Config{MaxQueueOps: 2, MaxDelay: time.Hour, FlushOps: 1 << 20})
	// Park two ops in the queue without waiting for their flush.
	bg, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := ent.Mutate(bg, []Op{
			{Op: "set_attr", ID: "dev", Attr: "name", Value: "a"},
			{Op: "set_attr", ID: "dev", Attr: "name", Value: "b"},
		})
		done <- err
	}()
	// Wait until they are queued.
	for i := 0; i < 1000 && ent.b.Load().queueDepth() < 2; i++ {
		time.Sleep(time.Millisecond)
	}
	if ent.b.Load().queueDepth() != 2 {
		t.Fatalf("queue depth %d, want 2", ent.b.Load().queueDepth())
	}
	if _, err := ent.Mutate(context.Background(), []Op{
		{Op: "set_attr", ID: "dev", Attr: "name", Value: "c"},
	}); err != ErrQueueFull {
		t.Fatalf("overfull enqueue returned %v, want ErrQueueFull", err)
	}
	if s := ent.Stats(); s.RejectedWrites != 1 {
		t.Fatalf("rejected_writes %d, want 1", s.RejectedWrites)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("abandoned wait returned %v, want context.Canceled", err)
	}
}

// TestBatcherOversizedRequest: a single request larger than the whole
// queue bound is rejected as permanent (ErrTooManyOps), not as
// retryable backpressure.
func TestBatcherOversizedRequest(t *testing.T) {
	_, ent := newTestEntry(t, Config{MaxQueueOps: 2, MaxDelay: time.Millisecond})
	ops := []Op{
		{Op: "set_attr", ID: "dev", Attr: "name", Value: "a"},
		{Op: "set_attr", ID: "dev", Attr: "name", Value: "b"},
		{Op: "set_attr", ID: "dev", Attr: "name", Value: "c"},
	}
	if _, err := ent.Mutate(context.Background(), ops); err != ErrTooManyOps {
		t.Fatalf("oversized request returned %v, want ErrTooManyOps", err)
	}
}

// TestBatcherCloseDrains: Delete flushes pending writes before the
// batcher stops, and later writes fail with ErrClosed.
func TestBatcherCloseDrains(t *testing.T) {
	cat, ent := newTestEntry(t, Config{MaxDelay: time.Hour, FlushOps: 1 << 20})
	done := make(chan WriteResult, 1)
	go func() {
		res, _ := ent.Mutate(context.Background(), []Op{
			{Op: "set_attr", ID: "dev", Attr: "type", Value: "programmer"},
		})
		done <- res
	}()
	for i := 0; i < 1000 && ent.b.Load().queueDepth() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if err := cat.Delete("g"); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.Applied != 1 || res.Err != nil {
		t.Fatalf("pending write not drained at close: %+v", res)
	}
	if _, err := ent.Mutate(context.Background(), []Op{
		{Op: "set_attr", ID: "dev", Attr: "name", Value: "late"},
	}); err != ErrClosed {
		t.Fatalf("write after close returned %v, want ErrClosed", err)
	}
}

// TestBatcherCloseDrainsToWAL pins the shutdown ordering: close drains
// the batcher BEFORE closing the entry's per-graph resources, so a
// write parked in the queue at shutdown still reaches the graph, the
// WAL, and the final checkpoint — a restore from the same directory
// must see it. (If close released the GraphStore first, the final
// flush would fail or be lost.)
func TestBatcherCloseDrainsToWAL(t *testing.T) {
	dir := t.TempDir()
	cat, ent := newTestEntry(t, Config{MaxDelay: time.Hour, FlushOps: 1 << 20, DataDir: dir})
	// Park the repairing write: the hour-long delay guarantees it is
	// still queued, unflushed, when Close runs.
	done := make(chan WriteResult, 1)
	go func() {
		res, _ := ent.Mutate(context.Background(), []Op{
			{Op: "set_attr", ID: "dev", Attr: "type", Value: "programmer"},
		})
		done <- res
	}()
	for i := 0; i < 1000 && ent.b.Load().queueDepth() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if ent.b.Load().queueDepth() == 0 {
		t.Fatal("write never queued")
	}
	cat.Close()
	res := <-done
	if res.Applied != 1 || res.Err != nil {
		t.Fatalf("parked write not drained at close: %+v", res)
	}

	// Reboot from the same directory: the drained write must have made
	// it to disk (it repaired the only planted violation).
	cat2, err := NewCatalog(Config{MaxDelay: time.Millisecond, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cat2.Close)
	if _, err := cat2.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	ent2, err := cat2.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	view := ent2.CurrentView()
	if len(view.Violations) != 0 {
		t.Fatalf("restored graph still has %d violations: the close-drained write was lost", len(view.Violations))
	}
	if v := ent.CurrentView(); view.Version != v.Version {
		t.Fatalf("restored version %d, pre-close version %d", view.Version, v.Version)
	}
}

// TestOpErrors: invalid ops are reported per-op while the rest of the
// batch applies.
func TestOpErrors(t *testing.T) {
	_, ent := newTestEntry(t, Config{MaxDelay: time.Millisecond})
	res, err := ent.Mutate(context.Background(), []Op{
		{Op: "set_attr", ID: "nobody", Attr: "type", Value: "x"},
		{Op: "add_node", ID: "qa", Label: "person", Attrs: map[string]any{"type": "tester"}},
		{Op: "add_edge", Src: "qa", Label: "create", Dst: "game"},
		{Op: "frobnicate"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 2 || len(res.OpErrors) != 2 {
		t.Fatalf("applied=%d errors=%v, want 2 applied and 2 errors", res.Applied, res.OpErrors)
	}
	view := ent.CurrentView()
	id, ok := view.Names.Resolve("qa")
	if !ok {
		t.Fatal("added node qa not resolvable in the published view")
	}
	if view.Names.NameOf(id) != "qa" {
		t.Fatalf("round-trip name %q, want qa", view.Names.NameOf(id))
	}
	// The new non-programmer creator of a video game is a violation the
	// maintained set must have picked up.
	found := false
	for _, v := range view.Violations {
		for _, nid := range v.Match {
			if nid == id {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("maintained set missed the violation added by the batch: %d violations", len(view.Violations))
	}
}

// BenchmarkFlushIngest is one flush of a 128-op write batch — 32 ×
// (add a person, add a product, link them, set a hot node's type) — on
// an in-memory tenant of ≈ 50k nodes under the paper's four rules. It
// reads the per-flush cost and allocations at a fixed size (run it with
// -benchmem); building the batch is left out of the measurement.
func BenchmarkFlushIngest(b *testing.B) {
	g, _ := workload.KnowledgeBase(40, 6000, 0.1)
	data, err := gedlib.MarshalGraph(g)
	if err != nil {
		b.Fatal(err)
	}
	cat, err := NewCatalog(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer cat.Close()
	ent, err := cat.Create("kb", data)
	if err != nil {
		b.Fatal(err)
	}
	sigma := gedlib.RuleSet{workload.PaperPhi1(), workload.PaperPhi2(), workload.PaperPhi3(), workload.PaperPhi4()}
	if _, err := ent.RegisterRules(context.Background(), gedlib.FormatRules(sigma)); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	seq := 0
	b.ReportAllocs()
	b.ResetTimer()
	// A b.N loop, not b.Loop: under Go 1.24.0 b.Loop's ramp-up, which
	// reads the timer, never reaches the default -benchtime when most of
	// each iteration runs with the timer stopped.
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ops := make([]Op, 0, 128)
		for i := 0; i < 32; i++ {
			seq++
			p, q := fmt.Sprintf("c%d-p", seq), fmt.Sprintf("c%d-g", seq)
			ops = append(ops,
				Op{Op: "add_node", ID: p, Label: "person", Attrs: map[string]any{"name": p, "type": "programmer"}},
				Op{Op: "add_node", ID: q, Label: "product", Attrs: map[string]any{"name": q, "type": "video game"}},
				Op{Op: "add_edge", Src: p, Label: "create", Dst: q},
				Op{Op: "set_attr", ID: fmt.Sprintf("n%d", rng.Intn(1000)), Attr: "type", Value: "psychologist"})
		}
		req := &writeReq{ops: ops, at: time.Now(), done: make(chan WriteResult, 1)}
		b.StartTimer()
		ent.flushBatch([]*writeReq{req})
		if res := <-req.done; res.Err != nil || res.Applied != len(ops) {
			b.Fatalf("flush: applied %d of %d, err %v %v", res.Applied, len(ops), res.Err, res.OpErrors)
		}
	}
}

// BenchmarkFlushBulkAddNode is one flush of a single request adding
// 2,000 named nodes with two attributes each to a small durable tenant:
// the bulk-load shape whose delta is still logged to the WAL. Each
// iteration starts from a fresh tenant; only the flush is measured.
func BenchmarkFlushBulkAddNode(b *testing.B) {
	const n = 2000
	ops := make([]Op, n)
	for i := range ops {
		id := fmt.Sprintf("bulk%d", i)
		ops[i] = Op{Op: "add_node", ID: id, Label: "person", Attrs: map[string]any{"name": id, "type": "programmer"}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ { // b.N, not b.Loop: see BenchmarkFlushIngest
		b.StopTimer()
		cat, err := NewCatalog(Config{DataDir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		ent, err := cat.Create("g", nil)
		if err != nil {
			b.Fatal(err)
		}
		req := &writeReq{ops: ops, at: time.Now(), done: make(chan WriteResult, 1)}
		b.StartTimer()
		ent.flushBatch([]*writeReq{req})
		b.StopTimer()
		if res := <-req.done; res.Err != nil || res.Applied != n {
			b.Fatalf("flush: applied %d of %d, err %v %v", res.Applied, n, res.Err, res.OpErrors)
		}
		cat.Close()
		b.StartTimer()
	}
}
