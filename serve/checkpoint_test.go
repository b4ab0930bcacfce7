package serve

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"gedlib"
	"gedlib/internal/obs"
	"gedlib/persist"
	"gedlib/persist/fault"
)

const ckptRules = `ged r on (x:person) { then x.ok = 1 }`

// ckptGate holds every background checkpoint writer at ckptTestHook:
// the held cut's version arrives on held, and the writer goes on when
// the test sends on release. Cleanup lets every writer through.
type ckptGate struct {
	held    chan uint64
	release chan struct{}
}

func gateCheckpoints(t *testing.T) *ckptGate {
	g := &ckptGate{held: make(chan uint64, 4), release: make(chan struct{})}
	ckptTestHook = func(_ *GraphEntry, v uint64) {
		g.held <- v
		<-g.release
	}
	t.Cleanup(func() {
		close(g.release)
		ckptTestHook = nil
	})
	return g
}

// next waits for the writer to reach the gate and returns its cut.
func (g *ckptGate) next(t *testing.T) uint64 {
	t.Helper()
	select {
	case v := <-g.held:
		return v
	case <-time.After(10 * time.Second):
		t.Fatal("no background checkpoint reached the gate")
		return 0
	}
}

// awaitWritten waits for the background writer to finish the
// checkpoint at version v (its span ends), whether or not it failed.
func awaitWritten(t *testing.T, c *Catalog, v uint64) *gedlib.SpanData {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		spans := c.tracer().Recent(obs.DefaultTraceRing, func(sd *gedlib.SpanData) bool {
			return sd.Op == "checkpoint" && sd.Version == v
		})
		if len(spans) > 0 {
			return spans[0]
		}
		if time.Now().After(deadline) {
			t.Fatalf("the checkpoint write at version %d never ended", v)
		}
		time.Sleep(time.Millisecond)
	}
}

// gauge reads one per-graph gauge from the catalog's /metricsz text.
func gauge(t *testing.T, c *Catalog, name, graph string) float64 {
	t.Helper()
	prefix := fmt.Sprintf("%s{graph=%q} ", name, graph)
	sc := bufio.NewScanner(strings.NewReader(metricsText(c)))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("/metricsz has no %s for graph %s", name, graph)
	return 0
}

// ckptWriter adds person nodes k, k+1, ... in requests of per ops; half
// of them carry ok=1, the rest violate ckptRules.
type ckptWriter struct {
	ent   *GraphEntry
	k     int
	acked []string
}

func (w *ckptWriter) write(t *testing.T, per int) WriteResult {
	t.Helper()
	ops := make([]Op, per)
	for i := range ops {
		id := fmt.Sprintf("p%d", w.k)
		ops[i] = Op{Op: "add_node", ID: id, Label: "person"}
		if w.k%2 == 0 {
			ops[i].Attrs = map[string]any{"ok": 1.0}
		}
		w.k++
	}
	res, err := w.ent.Mutate(context.Background(), ops)
	if err != nil || res.Err != nil || res.Applied != per {
		t.Fatalf("write: applied %d of %d, err %v %v", res.Applied, per, err, res.Err)
	}
	for _, op := range ops {
		w.acked = append(w.acked, op.ID)
	}
	return res
}

// untilCut flushes until a background checkpoint is in flight.
func (w *ckptWriter) untilCut(t *testing.T, c *Catalog, per int) {
	t.Helper()
	for n := 0; gauge(t, c, "ged_checkpoint_inflight", "g") == 0; n++ {
		if n == maxCutFlushes {
			t.Fatalf("no checkpoint was cut in %d flushes", n)
		}
		w.write(t, per)
	}
}

// maxCutFlushes bounds the flushes a test waits for a checkpoint cut.
const maxCutFlushes = 1000

// checkAcked fails unless every acked node resolves in v.
func (w *ckptWriter) checkAcked(t *testing.T, v *View, upTo int) {
	t.Helper()
	for _, id := range w.acked[:upTo] {
		if _, ok := v.Names.Resolve(id); !ok {
			t.Fatalf("acked node %s missing at version %d", id, v.Version)
		}
	}
}

func newCkptLeader(t *testing.T, dir string, every int) (*Catalog, *GraphEntry) {
	t.Helper()
	cat, err := NewCatalog(Config{DataDir: dir, CheckpointEvery: every, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ent, err := cat.Create("g", nil)
	if err != nil {
		cat.Close()
		t.Fatal(err)
	}
	if _, err := ent.RegisterRules(context.Background(), ckptRules); err != nil {
		cat.Close()
		t.Fatal(err)
	}
	return cat, ent
}

// restoreMatchesFresh restores dir into a fresh catalog and checks that
// the restored view is at version want, holds the first upTo acked nodes,
// and carries exactly the violations a fresh validation of the graph
// persist recovers from dir finds.
func restoreMatchesFresh(t *testing.T, dir string, w *ckptWriter, upTo int, want uint64) {
	t.Helper()
	cat, err := NewCatalog(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if _, err := cat.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	ent, err := cat.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	v := ent.CurrentView()
	if v.Version != want {
		t.Fatalf("restored at version %d, want %d", v.Version, want)
	}
	w.checkAcked(t, v, upTo)
	rec, err := cat.store.Recover("g")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := gedlib.New().Validate(context.Background(), rec.State.Graph, v.Rules)
	if err != nil {
		t.Fatal(err)
	}
	got, wantVs := canonViolations(v.Violations), canonViolations(fresh)
	if strings.Join(got, "\n") != strings.Join(wantVs, "\n") {
		t.Fatalf("restored %d violations, a fresh validation finds %d", len(got), len(wantVs))
	}
}

// TestCheckpointOffPath: with the background writer held at its gate,
// flushes worth more than twice CheckpointEvery ops are acked and
// readable, none waits on the writer, the flush spans carry no
// checkpoint stage, and /metricsz shows the write in flight and the lag
// growing. Released, the writer's span carries the cut and the next
// flush puts the cut's checkpoint in place; a Close while the next cut
// is held waits it out, writes the final checkpoint at the head and
// leaves no goroutine behind; a restore equals a fresh validation.
func TestCheckpointOffPath(t *testing.T) {
	const every, per = 64, 8
	base := runtime.NumGoroutine()
	gate := gateCheckpoints(t)
	dir := t.TempDir()
	cat, ent := newCkptLeader(t, dir, every)
	closed := false
	defer func() {
		if !closed {
			cat.Close()
		}
	}()
	w := &ckptWriter{ent: ent}
	w.untilCut(t, cat, per)
	cut := gate.next(t)
	lag0 := gauge(t, cat, "ged_checkpoint_lag_ops", "g")
	for n := 0; n < 2*every+per; n += per {
		res := w.write(t, per)
		w.checkAcked(t, ent.CurrentView(), len(w.acked))
		if res.Version <= cut {
			t.Fatalf("write acked at version %d, not past the cut %d", res.Version, cut)
		}
	}
	if got := gauge(t, cat, "ged_checkpoint_inflight", "g"); got != 1 {
		t.Fatalf("ged_checkpoint_inflight = %v while the writer is held, want 1", got)
	}
	if lag := gauge(t, cat, "ged_checkpoint_lag_ops", "g"); lag < lag0+2*every {
		t.Fatalf("ged_checkpoint_lag_ops = %v after %d ops past a lag of %v", lag, 2*every+per, lag0)
	}
	for _, sd := range cat.tracer().Recent(obs.DefaultTraceRing, func(sd *gedlib.SpanData) bool { return sd.Op == "flush" }) {
		for _, st := range sd.Stages {
			if st.Name == "checkpoint" {
				t.Fatalf("a flush span has a checkpoint stage of %v", st.Dur)
			}
		}
	}
	ckptPath := func(v uint64) string { return filepath.Join(dir, "g", fmt.Sprintf("ckpt-%016x.ged", v)) }
	if _, err := os.Stat(ckptPath(cut)); !os.IsNotExist(err) {
		t.Fatalf("checkpoint at the held cut %d exists: %v", cut, err)
	}

	gate.release <- struct{}{}
	if sd := awaitWritten(t, cat, cut); sd.Err != "" {
		t.Fatalf("the checkpoint write at %d failed: %s", cut, sd.Err)
	}
	// The next flush puts it in place, finds the next checkpoint due and
	// cuts again; Close while that write is held waits it out.
	w.write(t, per)
	if _, err := os.Stat(ckptPath(cut)); err != nil {
		t.Fatalf("checkpoint at the released cut %d: %v", cut, err)
	}
	if st := ent.ps.Load().Stats(); st.CheckpointVersion != cut {
		t.Fatalf("newest durable checkpoint %d, want the cut %d", st.CheckpointVersion, cut)
	}
	gate.next(t)
	head := ent.CurrentView().Version
	done := make(chan struct{})
	go func() {
		cat.Close()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Close returned while a checkpoint write was held")
	case <-time.After(50 * time.Millisecond):
	}
	gate.release <- struct{}{}
	<-done
	closed = true
	if _, err := os.Stat(ckptPath(head)); err != nil {
		t.Fatalf("final checkpoint at the head %d: %v", head, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the catalog", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
	restoreMatchesFresh(t, dir, w, len(w.acked), head)
}

// TestCheckpointCrashWindow: a crash between the WAL rotation and the
// checkpoint's rename (a copy of the directory then) and one after it
// both recover every acked write, and a follower tails the leader
// across the rotation.
func TestCheckpointCrashWindow(t *testing.T) {
	const every, per = 32, 4
	gate := gateCheckpoints(t)
	base := t.TempDir()
	dir := filepath.Join(base, "leader")
	cat, ent := newCkptLeader(t, dir, every)
	defer cat.Close()
	fol, err := NewCatalog(Config{DataDir: dir, FollowPoll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	if err := fol.Follow(context.Background()); err != nil {
		t.Fatal(err)
	}
	w := &ckptWriter{ent: ent}
	w.untilCut(t, cat, per)
	cut := gate.next(t)
	for i := 0; i < 3; i++ {
		w.write(t, per) // acked into the segment the rotation opened
	}
	before := filepath.Join(base, "before")
	copyTree(t, dir, before)
	nBefore, vBefore := len(w.acked), ent.CurrentView().Version

	gate.release <- struct{}{}
	awaitWritten(t, cat, cut)
	w.write(t, per) // puts the checkpoint in place
	if st := ent.ps.Load().Stats(); st.CheckpointVersion != cut {
		t.Fatalf("newest durable checkpoint %d, want the cut %d", st.CheckpointVersion, cut)
	}
	after := filepath.Join(base, "after")
	copyTree(t, dir, after)
	nAfter, vAfter := len(w.acked), ent.CurrentView().Version

	if _, err := os.Stat(filepath.Join(before, "g", fmt.Sprintf("ckpt-%016x.ged", cut))); !os.IsNotExist(err) {
		t.Fatalf("the copy inside the window holds the cut's checkpoint: %v", err)
	}
	restoreMatchesFresh(t, before, w, nBefore, vBefore)
	restoreMatchesFresh(t, after, w, nAfter, vAfter)

	fent, err := fol.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for fent.CurrentView().Version != vAfter {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at version %d, leader at %d", fent.CurrentView().Version, vAfter)
		}
		time.Sleep(time.Millisecond)
	}
	w.checkAcked(t, fent.CurrentView(), nAfter)
}

// TestCheckpointBoundedWAL: while the background writer keeps up, no
// flush leaves more than twice CheckpointEvery ops past the newest
// durable checkpoint, and checkpoints keep landing.
func TestCheckpointBoundedWAL(t *testing.T) {
	const every, per = 128, 4
	cat, ent := newCkptLeader(t, t.TempDir(), every)
	defer cat.Close()
	ps := ent.ps.Load()
	w := &ckptWriter{ent: ent}
	for n := 0; n < 12*every; n += per {
		w.write(t, per)
		if lag := ps.Stats().OpsSinceCheckpoint; lag > 2*every {
			t.Fatalf("after %d ops, %d lie past the newest durable checkpoint; bound %d", n+per, lag, 2*every)
		}
	}
	if st := ps.Stats(); st.CheckpointVersion < uint64(8*every) {
		t.Fatalf("newest durable checkpoint at version %d after %d ops", st.CheckpointVersion, 12*every)
	}
}

// TestCheckpointErrorPolicy: a background write's error reaches the next
// flush, which acks its batch either way. A transient one (EIO) keeps
// the graph writable and the next due point retries; a permanent one
// (ENOSPC) degrades the graph, and a probe's heal checkpoint brings it
// back once the disk recovers.
func TestCheckpointErrorPolicy(t *testing.T) {
	const every, per = 32, 4
	gate := gateCheckpoints(t)
	ffs := fault.New(1, persist.OSFS())
	cat, err := NewCatalog(Config{DataDir: t.TempDir(), FS: ffs, CheckpointEvery: every, MaxDelay: time.Millisecond, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	ent, err := cat.Create("g", nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := ent.ps.Load()
	w := &ckptWriter{ent: ent}
	// cut flushes until a background write starts, lets it run to its
	// end, and returns the cut's version; the next flush collects the
	// write's outcome.
	cut := func() uint64 {
		t.Helper()
		for n := 0; n < maxCutFlushes; n++ {
			w.write(t, per)
			select {
			case v := <-gate.held:
				gate.release <- struct{}{}
				awaitWritten(t, cat, v)
				return v
			default:
			}
		}
		t.Fatalf("no checkpoint was cut in %d flushes", maxCutFlushes)
		return 0
	}

	ffs.Inject(fault.Rule{Kind: "eio", Op: fault.OpWrite, Path: ".tmp-ckpt-", Err: syscall.EIO, Count: 1})
	failed := cut()
	w.write(t, per)
	if h, cause := ent.Health(); h != "ok" {
		t.Fatalf("health %s (%v) after a transient checkpoint error, want ok", h, cause)
	}
	if st := ps.Stats(); st.CheckpointVersion >= failed {
		t.Fatalf("newest durable checkpoint %d, but the write at %d failed", st.CheckpointVersion, failed)
	}
	retried := cut()
	w.write(t, per)
	if st := ps.Stats(); st.CheckpointVersion != retried {
		t.Fatalf("the next due point did not retry: newest durable checkpoint %d, want %d", st.CheckpointVersion, retried)
	}

	ffs.Inject(fault.Rule{Kind: "enospc", Op: fault.OpWrite, Path: ".tmp-ckpt-", Err: syscall.ENOSPC})
	cut()
	res, err := ent.Mutate(context.Background(), []Op{{Op: "add_node", ID: "last", Label: "person"}})
	if err != nil || res.Err != nil || res.Applied != 1 {
		t.Fatalf("the flush collecting a permanent checkpoint error was not acked: %+v %v", res, err)
	}
	if h, _ := ent.Health(); h != "degraded" {
		t.Fatalf("health %s after a permanent checkpoint error, want degraded", h)
	}
	ffs.Heal()
	if err := ent.Probe(context.Background()); err != nil {
		t.Fatal(err)
	}
	if h, _ := ent.Health(); h != "ok" {
		t.Fatalf("health %s after the heal, want ok", h)
	}
	if st := ps.Stats(); st.OpsSinceCheckpoint != 0 || st.CheckpointVersion != ent.CurrentView().Version {
		t.Fatalf("after the heal: %+v, want a checkpoint at the head %d", st, ent.CurrentView().Version)
	}
}
