package persist

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gedlib"
)

// TestBackgroundCheckpoint walks the background protocol: Rotate cuts
// the WAL, appends go on into the new segment while WriteCheckpoint
// writes the cut's image, and until Publish renames it a recovery starts
// from the previous checkpoint and replays across the rotation; after
// it, recovery starts from the cut. Nothing is compacted before the
// rename.
func TestBackgroundCheckpoint(t *testing.T) {
	s := openStore(t, Options{RetainCheckpoints: 1})
	dir := filepath.Join(s.Dir(), "kb")
	g := gedlib.NewGraph()
	var names []string
	rng := rand.New(rand.NewSource(3))
	mutate(g, &names, rng, 40)
	gs, err := s.Create("kb", Cut{Snap: g.Freeze(), Names: names})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	first := g.Version()
	appendSynced := func(n int) {
		t.Helper()
		d, dn := step(g, &names, rng, n)
		if err := gs.AppendDelta(d, dn); err != nil {
			t.Fatal(err)
		}
		if err := gs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	appendSynced(30)
	cut, err := gs.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if cut != g.Version() {
		t.Fatalf("Rotate cut at %d, want the appended version %d", cut, g.Version())
	}
	c := Cut{Snap: g.Freeze(), Names: append([]string(nil), names...)}
	appendSynced(20) // lands in the new segment while the image is pending

	// The crash window: no checkpoint at the cut yet, old segments kept.
	if _, err := os.Stat(filepath.Join(dir, ckptName(cut))); !os.IsNotExist(err) {
		t.Fatalf("checkpoint at the cut exists before it was written: %v", err)
	}
	rec, err := s.Recover("kb")
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckpointVersion != first {
		t.Fatalf("recovered from checkpoint %d, want the previous one at %d", rec.CheckpointVersion, first)
	}
	assertStateEqual(t, State{Graph: g, Names: names}, rec.State)
	if st := gs.Stats(); st.CheckpointVersion != first || st.OpsSinceCheckpoint != rec.ReplayedOps {
		t.Fatalf("stats %+v before the write, want checkpoint %d and lag %d", st, first, rec.ReplayedOps)
	}

	pending, err := gs.WriteCheckpoint(c)
	if err != nil {
		t.Fatal(err)
	}
	// Written but not yet in place: still the previous root.
	if rec, err := s.Recover("kb"); err != nil || rec.CheckpointVersion != first {
		t.Fatalf("recovery before Publish: %v, from checkpoint %d; want %d", err, rec.CheckpointVersion, first)
	}
	if err := pending.Publish(); err != nil {
		t.Fatal(err)
	}
	rec, err = s.Recover("kb")
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckpointVersion != cut {
		t.Fatalf("recovered from checkpoint %d, want the cut %d", rec.CheckpointVersion, cut)
	}
	assertStateEqual(t, State{Graph: g, Names: names}, rec.State)
	if st := gs.Stats(); st.CheckpointVersion != cut || st.OpsSinceCheckpoint != rec.ReplayedOps {
		t.Fatalf("stats %+v after the write, want checkpoint %d and lag %d", st, cut, rec.ReplayedOps)
	}
	segs, _ := s.listVersions(dir, "wal-", ".log")
	ckpts, _ := s.listVersions(dir, "ckpt-", ".ged")
	if len(segs) != 1 || segs[0] != cut || len(ckpts) != 1 || ckpts[0] != cut {
		t.Fatalf("after compaction: segments %v, checkpoints %v; want only the cut %d", segs, ckpts, cut)
	}

	// A cut the handle did not rotate at is refused.
	appendSynced(5)
	if _, err := gs.WriteCheckpoint(Cut{Snap: g.Freeze(), Names: names}); err == nil {
		t.Fatal("WriteCheckpoint of a version the WAL was not cut at succeeded")
	}
}

// TestDeposedBackgroundCheckpoint: a leader deposed while its background
// checkpoint is in flight fails the fence check Publish makes before the
// rename, so its image never becomes a recovery root and leaves no temp
// file; the new leader's recovery adopts everything the old one synced.
func TestDeposedBackgroundCheckpoint(t *testing.T) {
	s := openStore(t, Options{})
	dir := filepath.Join(s.Dir(), "kb")
	g := gedlib.NewGraph()
	var names []string
	rng := rand.New(rand.NewSource(8))
	mutate(g, &names, rng, 40)
	old, err := s.Create("kb", Cut{Snap: g.Freeze(), Names: names})
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	first := g.Version()
	d, dn := step(g, &names, rng, 25)
	if err := old.AppendDelta(d, dn); err != nil {
		t.Fatal(err)
	}
	if err := old.Sync(); err != nil {
		t.Fatal(err)
	}
	cut, err := old.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	fresh, rec, err := s.Promote("kb")
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	pending, err := old.WriteCheckpoint(Cut{Snap: g.Freeze(), Names: names})
	if err != nil {
		t.Fatal(err)
	}
	if err := pending.Publish(); !errors.Is(err, ErrFenced) {
		t.Fatalf("deposed background checkpoint: %v, want ErrFenced", err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if de.Name() == ckptName(cut) || strings.HasPrefix(de.Name(), ".tmp-ckpt-") {
			t.Fatalf("deposed leader left %s behind", de.Name())
		}
	}
	if rec.CheckpointVersion != first || rec.State.Graph.Version() != cut {
		t.Fatalf("promotion recovered from %d to %d, want from %d to %d", rec.CheckpointVersion, rec.State.Graph.Version(), first, cut)
	}
	assertStateEqual(t, State{Graph: g, Names: names}, rec.State)
}

// TestCheckpointWriteAllocs: a checkpoint write allocates one buffer the
// size of the graph (the image's columns) and streams the file out of it
// through a bounded scratch buffer, where the file's bytes, a copy of
// each column and the columns themselves once made three.
func TestCheckpointWriteAllocs(t *testing.T) {
	g := gedlib.NewGraph()
	const n = 60_000
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		id := g.AddNode([]gedlib.Label{"person", "product"}[i%2])
		g.SetAttr(id, "type", gedlib.String([]string{"a", "b", "c"}[rng.Intn(3)]))
		g.SetAttr(id, "rank", gedlib.Int(rng.Intn(4)))
	}
	for i := 0; i < 2*n; i++ {
		g.AddEdge(gedlib.NodeID(rng.Intn(n)), "likes", gedlib.NodeID(rng.Intn(n)))
	}
	snap := g.Freeze()
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v, err := s.writeCheckpoint(dir, Cut{Snap: snap}, 0, false)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, ckptName(v)))
	if err != nil {
		t.Fatal(err)
	}
	alloc, size := after.TotalAlloc-before.TotalAlloc, uint64(fi.Size())
	if alloc > size*3/2 {
		t.Fatalf("writing a %d-byte checkpoint allocated %d bytes, over 1.5× the file", size, alloc)
	}
	t.Logf("a %d-byte checkpoint allocated %d bytes (%.2f×)", size, alloc, float64(alloc)/float64(size))
}

// TestCheckpointPortableEncoding: the explicit little-endian encoder a
// big-endian host would use writes the same file as the in-place
// column views.
func TestCheckpointPortableEncoding(t *testing.T) {
	g := gedlib.NewGraph()
	var names []string
	mutate(g, &names, rand.New(rand.NewSource(4)), 400)
	c := Cut{Snap: g.Freeze(), Names: names, Rules: "ged r on (x:person) { then x.ok = 1 }"}
	write := func(le bool) []byte {
		t.Helper()
		defer func(saved bool) { nativeLE = saved }(nativeLE)
		nativeLE = le
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.writeCheckpoint(dir, c, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, ckptName(v)))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	native, portable := write(nativeLE), write(false)
	if string(native) != string(portable) {
		t.Fatalf("the portable encoder writes %d bytes that differ from the native %d", len(portable), len(native))
	}
}
