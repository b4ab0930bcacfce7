package serve

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestFlushPanicContained: a panic inside a flush (a poisoned rule
// plan, a bad op application) must fail that batch with ErrFlush and
// leave the batcher alive for the next write — not kill the flusher
// goroutine and hang every queued writer.
func TestFlushPanicContained(t *testing.T) {
	c, err := NewCatalog(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ent, err := c.Create("g", nil)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := true
	flushTestHook = func(e *GraphEntry) {
		if poisoned {
			poisoned = false
			panic("poisoned rule plan")
		}
	}
	defer func() { flushTestHook = nil }()

	_, err = ent.Mutate(context.Background(), []Op{{Op: "add_node", ID: "a", Label: "person"}})
	if !errors.Is(err, ErrFlush) || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("poisoned flush: err=%v, want ErrFlush wrapping the panic", err)
	}
	// In-memory entries do not degrade on panic (there is no WAL to
	// diverge from); the next flush must just work.
	if h, _ := ent.Health(); h != "ok" {
		t.Fatalf("in-memory entry health %q after panic, want ok", h)
	}
	res, err := ent.Mutate(context.Background(), []Op{{Op: "add_node", ID: "b", Label: "person"}})
	if err != nil {
		t.Fatalf("mutate after contained panic: %v", err)
	}
	if res.Applied != 1 {
		t.Fatalf("applied %d, want 1", res.Applied)
	}
}

// TestFlushPanicDegradesDurable: on a durable entry a panicking flush
// degrades the entry — whatever it broke, writes stop until a probe —
// and a Probe (the operator enable path) heals it with a checkpoint.
func TestFlushPanicDegradesDurable(t *testing.T) {
	c, err := NewCatalog(Config{DataDir: t.TempDir(), ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ent, err := c.Create("g", nil)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := true
	flushTestHook = func(e *GraphEntry) {
		if poisoned {
			poisoned = false
			panic("poisoned rule plan")
		}
	}
	defer func() { flushTestHook = nil }()

	if _, err = ent.Mutate(context.Background(), []Op{{Op: "add_node", ID: "a", Label: "person"}}); !errors.Is(err, ErrFlush) {
		t.Fatalf("poisoned flush: err=%v, want ErrFlush", err)
	}
	if h, _ := ent.Health(); h != "degraded" {
		t.Fatalf("durable entry health %q after panic, want degraded", h)
	}
	if _, err := ent.Mutate(context.Background(), []Op{{Op: "add_node", ID: "b", Label: "person"}}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("mutate while degraded: err=%v, want ErrDegraded", err)
	}
	// Reads keep serving the last published view while degraded.
	if view := ent.CurrentView(); view == nil {
		t.Fatal("no view while degraded")
	}
	if err := ent.Probe(context.Background()); err != nil {
		t.Fatalf("probe on a healthy disk: %v", err)
	}
	if h, _ := ent.Health(); h != "ok" {
		t.Fatalf("health %q after probe, want ok", h)
	}
	if _, err := ent.Mutate(context.Background(), []Op{{Op: "add_node", ID: "c", Label: "person"}}); err != nil {
		t.Fatalf("mutate after heal: %v", err)
	}
	if got := ent.Stats(); got.Recoveries != 1 || got.Probes != 1 {
		t.Fatalf("stats recoveries=%d probes=%d, want 1/1", got.Recoveries, got.Probes)
	}
}

// TestFlushPanicKeepsNames: a panic after the flush logged its batch,
// before the session applied it, leaves memory behind the log. The
// entry degrades, and the probe reloads it from the log before its
// checkpoint, so the logged batch becomes visible with its names: the
// node resolves by its wire id and a re-sent add_node of the same id is
// a duplicate — on the healed entry and after a restore.
func TestFlushPanicKeepsNames(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCatalog(Config{DataDir: dir, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ent, err := c.Create("g", nil)
	if err != nil {
		t.Fatal(err)
	}
	applyTestHook = func(*GraphEntry) { panic("poisoned rule plan") }
	defer func() { applyTestHook = nil }()
	ops := []Op{{Op: "add_node", ID: "a", Label: "person"}}
	if _, err := ent.Mutate(context.Background(), ops); !errors.Is(err, ErrFlush) {
		t.Fatalf("poisoned flush: err=%v, want ErrFlush", err)
	}
	applyTestHook = nil
	if h, _ := ent.Health(); h != "degraded" {
		t.Fatalf("health %q after a panic past the log, want degraded", h)
	}
	if n := ent.CurrentView().Snap.NumNodes(); n != 0 {
		t.Fatalf("%d nodes before the heal, want 0: the session never applied the batch", n)
	}
	if err := ent.Probe(context.Background()); err != nil {
		t.Fatalf("probe: %v", err)
	}
	check := func(ent *GraphEntry, when string) {
		t.Helper()
		view := ent.CurrentView()
		if id, ok := view.Names.Resolve("a"); !ok || view.Snap.Label(id) != "person" {
			t.Fatalf("%s: %q resolves to %d/%v, want the node the logged batch added", when, "a", id, ok)
		}
		if n := view.Snap.NumNodes(); n != 1 {
			t.Fatalf("%s: %d nodes, want 1", when, n)
		}
		res, err := ent.Mutate(context.Background(), ops)
		if err != nil || res.Applied != 0 || len(res.OpErrors) != 1 || !strings.Contains(res.OpErrors[0].Message, "already exists") {
			t.Fatalf("%s: re-sent add_node: applied %d, errors %v, err %v; want a duplicate", when, res.Applied, res.OpErrors, err)
		}
	}
	check(ent, "after heal")
	c.Close()
	rc, err := NewCatalog(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	rent, err := rc.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	check(rent, "after restore")
}

// TestViewNamesBoundedBySnapshot: names enter the index only once the
// session holds their nodes. An in-memory flush that panics after its
// (empty) log step, before the session applies the batch, leaves no
// name behind: no view resolves the lost node's wire id, the id can be
// added again, and the next flush's nodes resolve within their view.
func TestViewNamesBoundedBySnapshot(t *testing.T) {
	c, err := NewCatalog(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ent, err := c.Create("g", nil)
	if err != nil {
		t.Fatal(err)
	}
	applyTestHook = func(*GraphEntry) { panic("poisoned rule plan") }
	defer func() { applyTestHook = nil }()
	ctx := context.Background()
	if _, err := ent.Mutate(ctx, []Op{{Op: "add_node", ID: "a", Label: "person"}}); !errors.Is(err, ErrFlush) {
		t.Fatalf("poisoned flush: err=%v, want ErrFlush", err)
	}
	applyTestHook = nil
	view, err := ent.RegisterRules(ctx, `ged r on (x:person) { then x.ok = 1 }`)
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := view.Names.Resolve("a"); ok {
		t.Fatalf("view of %d nodes resolves %q, which the panicked flush never applied, to node %d", view.Snap.NumNodes(), "a", id)
	}
	res, err := ent.Mutate(ctx, []Op{{Op: "add_node", ID: "a", Label: "person"}, {Op: "add_node", ID: "b", Label: "person"}})
	if err != nil || res.Applied != 2 {
		t.Fatalf("re-adding a and b: applied %d, errors %v, err %v", res.Applied, res.OpErrors, err)
	}
	view = ent.CurrentView()
	for _, name := range []string{"a", "b"} {
		if id, ok := view.Names.Resolve(name); !ok || int(id) >= view.Snap.NumNodes() {
			t.Fatalf("%q resolves to %d/%v of %d nodes", name, id, ok, view.Snap.NumNodes())
		}
	}
	if n := len(view.Violations); n != 2 {
		t.Fatalf("%d violations, want 2 (both persons lack ok)", n)
	}
}
