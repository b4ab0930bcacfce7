package persist

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gedlib"
)

// step mutates g by n random ops and returns the delta + wire names,
// the way the serve batcher feeds AppendDelta.
func step(g *gedlib.Graph, names *[]string, rng *rand.Rand, n int) (*gedlib.Delta, []string) {
	from := g.Version()
	mutate(g, names, rng, n)
	d := g.DeltaSince(from)
	dn := make([]string, len(d.Nodes))
	for i, nd := range d.Nodes {
		dn[i] = (*names)[nd.ID]
	}
	return d, dn
}

func TestEpochsFileRoundTrip(t *testing.T) {
	s := openStore(t, Options{})
	dir := s.Dir()

	// Absent file: epoch 0, no bounds.
	bounds, err := s.readEpochs(dir)
	if err != nil || bounds != nil {
		t.Fatalf("absent EPOCHS: bounds=%v err=%v", bounds, err)
	}
	if e := currentEpoch(bounds); e != 0 {
		t.Fatalf("fresh epoch %d, want 0", e)
	}

	want := []EpochBound{{1, 100}, {2, 180}, {5, 1 << 40}}
	if err := s.writeEpochs(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := s.readEpochs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d bounds, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bound %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if e := currentEpoch(got); e != 5 {
		t.Fatalf("current epoch %d, want 5", e)
	}
	if b := boundAfter(got, 1); b == nil || b.Epoch != 2 {
		t.Fatalf("boundAfter(1) = %+v, want epoch 2", b)
	}
	if b := boundAfter(got, 5); b != nil {
		t.Fatalf("boundAfter(5) = %+v, want nil", b)
	}
	if !staleBeyond(got, 1, 200) || staleBeyond(got, 1, 180) ||
		staleBeyond(got, 2, 1<<40) || !staleBeyond(got, 2, 1+1<<40) || staleBeyond(got, 5, 1<<50) {
		t.Fatal("staleBeyond verdicts wrong")
	}

	// Corruption: out-of-order bounds and a bad magic both refuse.
	if err := s.writeEpochs(dir, nil); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, epochsFile), []byte("gedepochs1\n0000000000000002 0000000000000010\n0000000000000001 0000000000000020\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.readEpochs(dir); err == nil {
		t.Fatal("out-of-order bounds accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, epochsFile), []byte("not-an-epochs-file\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.readEpochs(dir); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestPromoteFencesOldLeader is the core failover contract: after a
// Promote, the deposed handle's appends, syncs and checkpoints all fail
// with ErrFenced, nothing it acked is lost, and the new handle writes
// under the bumped epoch.
func TestPromoteFencesOldLeader(t *testing.T) {
	s := openStore(t, Options{})
	g := gedlib.NewGraph()
	var names []string
	rng := rand.New(rand.NewSource(21))
	mutate(g, &names, rng, 40)
	old, err := s.Create("kb", Cut{Snap: g.Freeze(), Names: names})
	if err != nil {
		t.Fatal(err)
	}

	// Acked epoch-0 history.
	d, dn := step(g, &names, rng, 25)
	if err := old.AppendDelta(d, dn); err != nil {
		t.Fatal(err)
	}
	if err := old.Sync(); err != nil {
		t.Fatal(err)
	}
	ackedVersion := g.Version()

	fresh, rec, err := s.Promote("kb")
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if rec.Epoch != 1 || fresh.Epoch() != 1 {
		t.Fatalf("promoted epoch %d/%d, want 1", rec.Epoch, fresh.Epoch())
	}
	if rec.State.Graph.Version() != ackedVersion {
		t.Fatalf("promotion drained to %d, want %d", rec.State.Graph.Version(), ackedVersion)
	}
	assertStateEqual(t, State{Graph: g, Names: names}, rec.State)

	// The deposed handle is fenced on every write path.
	d2, dn2 := step(g, &names, rng, 5)
	if err := old.AppendDelta(d2, dn2); !errors.Is(err, ErrFenced) {
		t.Fatalf("deposed append: %v, want ErrFenced", err)
	}
	if err := old.Checkpoint(Cut{Snap: g.Freeze(), Names: names}); !errors.Is(err, ErrFenced) {
		t.Fatalf("deposed checkpoint: %v, want ErrFenced", err)
	}
	if err := old.AppendRules(g.Version(), "r"); !errors.Is(err, ErrFenced) {
		t.Fatalf("deposed rules: %v, want ErrFenced", err)
	}
	if st := old.Stats(); !st.Fenced || st.Epoch != 0 {
		t.Fatalf("deposed stats %+v, want fenced at epoch 0", st)
	}

	// The new handle owns the log: appends land and recover under epoch 1.
	ng := rec.State.Graph
	nNames := rec.State.Names
	d3, dn3 := step(ng, &nNames, rng, 15)
	if err := fresh.AppendDelta(d3, dn3); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Sync(); err != nil {
		t.Fatal(err)
	}
	rec2, err := s.Recover("kb")
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Epoch != 1 {
		t.Fatalf("recovered epoch %d, want 1", rec2.Epoch)
	}
	assertStateEqual(t, State{Graph: ng, Names: nNames}, rec2.State)
}

// TestPromoteAdoptsUnsyncedRecords pins the acknowledgement-time fence
// rule: a record the old leader wrote (but had not synced) before the
// promotion is drained and adopted — so the old leader's in-flight
// group commit may still be acked — while the append after it is
// fenced.
func TestPromoteAdoptsUnsyncedRecords(t *testing.T) {
	s := openStore(t, Options{}) // FsyncBatch: ack happens at Sync
	g := gedlib.NewGraph()
	var names []string
	rng := rand.New(rand.NewSource(22))
	mutate(g, &names, rng, 30)
	old, err := s.Create("kb", Cut{Snap: g.Freeze(), Names: names})
	if err != nil {
		t.Fatal(err)
	}
	d, dn := step(g, &names, rng, 20)
	if err := old.AppendDelta(d, dn); err != nil { // written, not yet synced
		t.Fatal(err)
	}

	fresh, rec, err := s.Promote("kb")
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if rec.State.Graph.Version() != g.Version() {
		t.Fatalf("drain stopped at %d, want %d (unsynced record adopted)", rec.State.Graph.Version(), g.Version())
	}

	// The old leader's group commit covering the adopted record still
	// acks — the record is at the fence bound, in the adopted lineage.
	if err := old.Sync(); err != nil {
		t.Fatalf("sync of adopted records: %v, want nil (ackable)", err)
	}
	// But the handle latched fenced: the next write fails before landing.
	d2, dn2 := step(g, &names, rng, 5)
	if err := old.AppendDelta(d2, dn2); !errors.Is(err, ErrFenced) {
		t.Fatalf("post-adoption append: %v, want ErrFenced", err)
	}
}

// TestPostFenceRecordsSkipped forges the race window the fence check
// cannot close: a deposed leader's frame that physically lands in the
// segment after the fence bound. Replay and recovery must skip it —
// it was never acked — and chain the new epoch's records cleanly.
func TestPostFenceRecordsSkipped(t *testing.T) {
	s := openStore(t, Options{Fsync: FsyncOff})
	g := gedlib.NewGraph()
	var names []string
	rng := rand.New(rand.NewSource(23))
	mutate(g, &names, rng, 30)
	old, err := s.Create("kb", Cut{Snap: g.Freeze(), Names: names})
	if err != nil {
		t.Fatal(err)
	}
	_ = old
	fresh, rec, err := s.Promote("kb")
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	bound := rec.State.Graph.Version()

	// A stale-epoch frame beyond the bound lands directly in the live
	// segment (simulating an old-leader write() that raced the fence).
	ghost := gedlib.NewGraph()
	_ = ghost.ApplyDelta(g.DeltaSince(0))
	gNames := append([]string(nil), names...)
	gd, gdn := step(ghost, &gNames, rng, 8)
	dir, _ := s.graphDir("kb")
	segs, _ := s.listVersions(dir, "wal-", ".log")
	segPath := filepath.Join(dir, segName(segs[len(segs)-1]))
	f, err := os.OpenFile(segPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame(encodeDelta(time.Now().UnixNano(), 0, gd, gdn))); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	// The new leader appends its own record from the same bound version.
	ng := rec.State.Graph
	nNames := rec.State.Names
	nd, ndn := step(ng, &nNames, rng, 10)
	if nd.FromVersion != bound {
		t.Fatalf("new leader chains from %d, want %d", nd.FromVersion, bound)
	}
	if err := fresh.AppendDelta(nd, ndn); err != nil {
		t.Fatal(err)
	}

	rec2, err := s.Recover("kb")
	if err != nil {
		t.Fatal(err)
	}
	if rec2.FencedRecords != 1 {
		t.Fatalf("skipped %d fenced records, want 1", rec2.FencedRecords)
	}
	if rec2.TruncatedTail {
		t.Fatal("fenced record misdiagnosed as corruption")
	}
	assertStateEqual(t, State{Graph: ng, Names: nNames}, rec2.State)
}

// TestStaleCheckpointDisqualified: a checkpoint published by a deposed
// leader past its fence bound must not become the recovery root, even
// when it is the newest file on disk.
func TestStaleCheckpointDisqualified(t *testing.T) {
	s := openStore(t, Options{Fsync: FsyncOff})
	g := gedlib.NewGraph()
	var names []string
	rng := rand.New(rand.NewSource(24))
	mutate(g, &names, rng, 30)
	old, err := s.Create("kb", Cut{Snap: g.Freeze(), Names: names})
	if err != nil {
		t.Fatal(err)
	}
	_ = old
	fresh, rec, err := s.Promote("kb")
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	bound := rec.State.Graph.Version()

	// Forge the stale leader racing a checkpoint out beyond the bound
	// (bypassing GraphStore.Checkpoint, whose own fence check refuses).
	ghost := gedlib.NewGraph()
	_ = ghost.ApplyDelta(g.DeltaSince(0))
	gNames := append([]string(nil), names...)
	mutate(ghost, &gNames, rng, 12)
	dir, _ := s.graphDir("kb")
	if _, err := s.writeCheckpoint(dir, Cut{Snap: ghost.Freeze(), Names: gNames}, 0, false); err != nil {
		t.Fatal(err)
	}
	if ghost.Version() <= bound {
		t.Fatalf("forged checkpoint at %d not beyond bound %d", ghost.Version(), bound)
	}

	rec2, err := s.Recover("kb")
	if err != nil {
		t.Fatal(err)
	}
	if rec2.CheckpointVersion > bound {
		t.Fatalf("recovery rooted at fenced checkpoint %d (bound %d)", rec2.CheckpointVersion, bound)
	}
	if rec2.State.Graph.Version() != bound {
		t.Fatalf("recovered version %d, want %d", rec2.State.Graph.Version(), bound)
	}
	assertStateEqual(t, State{Graph: g, Names: names}, rec2.State)
}

// TestTailSurfacesEpochBump: a live tailer sees the promotion as an
// EpochBump record in stream order and keeps applying the new epoch's
// records seamlessly.
func TestTailSurfacesEpochBump(t *testing.T) {
	s := openStore(t, Options{Fsync: FsyncOff})
	g := gedlib.NewGraph()
	var names []string
	rng := rand.New(rand.NewSource(25))
	mutate(g, &names, rng, 30)
	old, err := s.Create("kb", Cut{Snap: g.Freeze(), Names: names})
	if err != nil {
		t.Fatal(err)
	}

	rec, err := s.Recover("kb")
	if err != nil {
		t.Fatal(err)
	}
	replica := rec.State.Graph
	type seen struct {
		bump    bool
		epoch   uint64
		version uint64
	}
	events := make(chan seen, 64)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tailErr := make(chan error, 1)
	go func() {
		tailErr <- s.Tail(ctx, "kb", rec, time.Millisecond, func(tr TailRecord) error {
			if tr.Delta != nil {
				if err := replica.ApplyDelta(tr.Delta); err != nil {
					return err
				}
			}
			events <- seen{bump: tr.EpochBump, epoch: tr.Epoch, version: tr.Version}
			return nil
		})
	}()

	d, dn := step(g, &names, rng, 10)
	if err := old.AppendDelta(d, dn); err != nil {
		t.Fatal(err)
	}
	fresh, prec, err := s.Promote("kb")
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	ng, nNames := prec.State.Graph, prec.State.Names
	nd, ndn := step(ng, &nNames, rng, 10)
	if err := fresh.AppendDelta(nd, ndn); err != nil {
		t.Fatal(err)
	}

	var got []seen
	deadline := time.After(5 * time.Second)
	for len(got) < 3 {
		select {
		case ev := <-events:
			got = append(got, ev)
		case err := <-tailErr:
			t.Fatalf("tail died: %v", err)
		case <-deadline:
			t.Fatalf("timed out after %d events: %+v", len(got), got)
		}
	}
	if got[0].bump || got[0].epoch != 0 {
		t.Fatalf("event 0 = %+v, want epoch-0 delta", got[0])
	}
	if !got[1].bump || got[1].epoch != 1 || got[1].version != g.Version() {
		t.Fatalf("event 1 = %+v, want epoch-1 bump at version %d", got[1], g.Version())
	}
	if got[2].bump || got[2].epoch != 1 {
		t.Fatalf("event 2 = %+v, want epoch-1 delta", got[2])
	}
	cancel()
	<-tailErr
	if replica.String() != ng.String() {
		t.Fatal("replica diverged across the promotion")
	}
}

// TestTailRotationLandsMidRead: the tailer blocks inside fn (mid-scan
// of the old segment) while the leader rotates twice; on resume it must
// drain the old segment, hop both rotations, and converge. This is the
// rotation-lands-mid-read case the poll loop's nextSegment hop covers.
func TestTailRotationLandsMidRead(t *testing.T) {
	s := openStore(t, Options{Fsync: FsyncOff, CheckpointEvery: 1 << 30, RetainCheckpoints: 64})
	g := gedlib.NewGraph()
	var names []string
	rng := rand.New(rand.NewSource(26))
	mutate(g, &names, rng, 20)
	gs, err := s.Create("kb", Cut{Snap: g.Freeze(), Names: names})
	if err != nil {
		t.Fatal(err)
	}
	d, dn := step(g, &names, rng, 10)
	if err := gs.AppendDelta(d, dn); err != nil {
		t.Fatal(err)
	}

	rec, err := s.Recover("kb")
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	gate := make(chan struct{})
	first := true
	replica := rec.State.Graph
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	applied := make(chan uint64, 64)
	tailErr := make(chan error, 1)
	go func() {
		tailErr <- s.Tail(ctx, "kb", rec, time.Millisecond, func(tr TailRecord) error {
			if first {
				first = false
				close(entered)
				<-gate // leader rotates twice while we sit here
			}
			if tr.Delta != nil {
				if err := replica.ApplyDelta(tr.Delta); err != nil {
					return err
				}
				applied <- tr.Delta.ToVersion
			}
			return nil
		})
	}()

	// First post-recovery record: unblocks the scan into fn.
	d, dn = step(g, &names, rng, 8)
	if err := gs.AppendDelta(d, dn); err != nil {
		t.Fatal(err)
	}
	<-entered
	// Two rotations land while the tailer is blocked mid-read.
	for i := 0; i < 2; i++ {
		if err := gs.Checkpoint(Cut{Snap: g.Freeze(), Names: names}); err != nil {
			t.Fatal(err)
		}
		d, dn = step(g, &names, rng, 8)
		if err := gs.AppendDelta(d, dn); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)

	deadline := time.After(5 * time.Second)
	for caught := false; !caught; {
		select {
		case v := <-applied:
			caught = v == g.Version()
		case err := <-tailErr:
			t.Fatalf("tail died: %v", err)
		case <-deadline:
			t.Fatalf("replica never caught up to leader at %d", g.Version())
		}
	}
	cancel()
	if err := <-tailErr; err != context.Canceled {
		t.Fatalf("tail exit: %v", err)
	}
	if replica.String() != g.String() {
		t.Fatal("replica diverged across mid-read rotations")
	}
	_ = gs.Close()
}

// TestTailEpochBumpThenTornTail: an epoch bump streams through, then a
// torn frame appears at the live tail. The tailer must deliver the
// bump, sit patiently on the torn frame (a write in flight), and
// consume the record once the writer repairs and completes it.
func TestTailEpochBumpThenTornTail(t *testing.T) {
	s := openStore(t, Options{Fsync: FsyncOff})
	g := gedlib.NewGraph()
	var names []string
	rng := rand.New(rand.NewSource(27))
	mutate(g, &names, rng, 20)
	gs, err := s.Create("kb", Cut{Snap: g.Freeze(), Names: names})
	if err != nil {
		t.Fatal(err)
	}
	_ = gs

	rec, err := s.Recover("kb")
	if err != nil {
		t.Fatal(err)
	}
	replica := rec.State.Graph
	bumps := make(chan uint64, 8)
	deltas := make(chan uint64, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tailErr := make(chan error, 1)
	go func() {
		tailErr <- s.Tail(ctx, "kb", rec, time.Millisecond, func(tr TailRecord) error {
			switch {
			case tr.EpochBump:
				bumps <- tr.Epoch
			case tr.Delta != nil:
				if err := replica.ApplyDelta(tr.Delta); err != nil {
					return err
				}
				deltas <- tr.Delta.ToVersion
			}
			return nil
		})
	}()

	fresh, prec, err := s.Promote("kb")
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	select {
	case e := <-bumps:
		if e != 1 {
			t.Fatalf("bump epoch %d, want 1", e)
		}
	case err := <-tailErr:
		t.Fatalf("tail died: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("bump never delivered")
	}

	// A torn frame lands at the live tail (write in flight / crash).
	ng, nNames := prec.State.Graph, prec.State.Names
	nd, ndn := step(ng, &nNames, rng, 10)
	whole := frame(encodeDelta(time.Now().UnixNano(), 1, nd, ndn))
	dir, _ := s.graphDir("kb")
	segs, _ := s.listVersions(dir, "wal-", ".log")
	segPath := filepath.Join(dir, segName(segs[len(segs)-1]))
	f, err := os.OpenFile(segPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := f.Stat()
	goodLen := st.Size()
	if _, err := f.Write(whole[:len(whole)/2]); err != nil {
		t.Fatal(err)
	}

	// The torn frame must not surface as a record or an error.
	select {
	case v := <-deltas:
		t.Fatalf("torn frame delivered as version %d", v)
	case err := <-tailErr:
		t.Fatalf("tail died on torn frame: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Writer repairs: truncate the garbage, append the whole frame.
	if err := f.Truncate(goodLen); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(whole); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	select {
	case v := <-deltas:
		if v != ng.Version() {
			t.Fatalf("delivered version %d, want %d", v, ng.Version())
		}
	case err := <-tailErr:
		t.Fatalf("tail died: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("repaired record never delivered")
	}
	cancel()
	<-tailErr
	if replica.String() != ng.String() {
		t.Fatal("replica diverged across torn-tail repair")
	}
}
