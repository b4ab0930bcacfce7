package persist

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gedlib"
)

// mutate drives nOps random ops against g, naming added nodes through
// names (dense by NodeID).
func mutate(g *gedlib.Graph, names *[]string, rng *rand.Rand, nOps int) {
	for i := 0; i < nOps; i++ {
		switch k := rng.Intn(10); {
		case k < 2 || g.NumNodes() == 0:
			id := g.AddNode(gedlib.Label([]string{"person", "city", "product"}[rng.Intn(3)]))
			for int(id) >= len(*names) {
				*names = append(*names, "")
			}
			if rng.Intn(3) > 0 {
				(*names)[id] = "n" + string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
			}
		case k < 6:
			src := gedlib.NodeID(rng.Intn(g.NumNodes()))
			dst := gedlib.NodeID(rng.Intn(g.NumNodes()))
			g.AddEdge(src, gedlib.Label([]string{"knows", "likes"}[rng.Intn(2)]), dst)
		default:
			id := gedlib.NodeID(rng.Intn(g.NumNodes()))
			if rng.Intn(2) == 0 {
				g.SetAttr(id, "age", gedlib.Int(rng.Intn(90)))
			} else {
				g.SetAttr(id, "type", gedlib.String([]string{"a", "b", "c"}[rng.Intn(3)]))
			}
		}
	}
}

func openStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func assertStateEqual(t *testing.T, want, got State) {
	t.Helper()
	if got.Graph.String() != want.Graph.String() {
		t.Fatalf("graphs differ:\ngot:\n%s\nwant:\n%s", got.Graph.String(), want.Graph.String())
	}
	if got.Graph.Version() != want.Graph.Version() {
		t.Fatalf("version: got %d, want %d", got.Graph.Version(), want.Graph.Version())
	}
	if got.Rules != want.Rules {
		t.Fatalf("rules: got %q, want %q", got.Rules, want.Rules)
	}
	for i := 0; i < len(want.Names) || i < len(got.Names); i++ {
		var w, g string
		if i < len(want.Names) {
			w = want.Names[i]
		}
		if i < len(got.Names) {
			g = got.Names[i]
		}
		if w != g {
			t.Fatalf("name of n%d: got %q, want %q", i, g, w)
		}
	}
}

// TestWALRecordRoundTrip: encode/decode identity for delta and rules
// records.
func TestWALRecordRoundTrip(t *testing.T) {
	g := gedlib.NewGraph()
	var names []string
	rng := rand.New(rand.NewSource(11))
	v0 := g.Version()
	mutate(g, &names, rng, 80)
	d := g.DeltaSince(v0)
	dn := make([]string, len(d.Nodes))
	for i, n := range d.Nodes {
		if int(n.ID) < len(names) {
			dn[i] = names[n.ID]
		}
	}
	ts := time.Now().UnixNano()
	tr, err := decodeRecord(encodeDelta(ts, 0, d, dn))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Delta == nil || tr.Rules != nil {
		t.Fatal("wrong record kind")
	}
	if tr.AppendedAt.UnixNano() != ts || tr.Version != d.ToVersion {
		t.Fatalf("metadata: %v %d", tr.AppendedAt, tr.Version)
	}
	if tr.Delta.FromVersion != d.FromVersion || tr.Delta.ToVersion != d.ToVersion ||
		len(tr.Delta.Nodes) != len(d.Nodes) || len(tr.Delta.Edges) != len(d.Edges) || len(tr.Delta.Attrs) != len(d.Attrs) {
		t.Fatalf("delta shape: %+v", tr.Delta)
	}
	// Replaying the decoded delta gives the same graph as the original.
	fresh := gedlib.NewGraph()
	if err := fresh.ApplyDelta(tr.Delta); err != nil {
		t.Fatal(err)
	}
	if fresh.String() != g.String() {
		t.Fatal("decoded delta replays differently")
	}
	for i := range dn {
		if tr.Names[i] != dn[i] {
			t.Fatalf("name %d: got %q, want %q", i, tr.Names[i], dn[i])
		}
	}

	src := "key company(x) => x.name = x.name;"
	tr, err = decodeRecord(encodeRules(ts, 0, 42, src))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rules == nil || *tr.Rules != src || tr.Version != 42 {
		t.Fatalf("rules record: %+v", tr)
	}
}

// TestScanFramesCorruptTail: the scanner keeps the valid prefix and
// flags torn headers, short payloads and CRC mismatches.
func TestScanFramesCorruptTail(t *testing.T) {
	a := frame([]byte("alpha"))
	b := frame([]byte("beta"))
	whole := append(append([]byte{}, a...), b...)

	count := func(b []byte) (n, valid int, corrupt bool) {
		valid, corrupt, err := scanFrames(b, 0, new(frameMark), func([]byte) error { n++; return nil })
		if err != nil {
			t.Fatal(err)
		}
		return n, valid, corrupt
	}

	if n, valid, corrupt := count(whole); n != 2 || valid != len(whole) || corrupt {
		t.Fatalf("clean scan: n=%d valid=%d corrupt=%v", n, valid, corrupt)
	}
	// Torn header.
	if n, valid, corrupt := count(whole[:len(a)+3]); n != 1 || valid != len(a) || !corrupt {
		t.Fatalf("torn header: n=%d valid=%d corrupt=%v", n, valid, corrupt)
	}
	// Short payload.
	if n, valid, corrupt := count(whole[:len(whole)-2]); n != 1 || valid != len(a) || !corrupt {
		t.Fatalf("short payload: n=%d valid=%d corrupt=%v", n, valid, corrupt)
	}
	// Flipped payload byte -> CRC mismatch.
	bad := append([]byte{}, whole...)
	bad[len(a)+8] ^= 0xff
	if n, valid, corrupt := count(bad); n != 1 || valid != len(a) || !corrupt {
		t.Fatalf("crc mismatch: n=%d valid=%d corrupt=%v", n, valid, corrupt)
	}
	// Implausible length prefix.
	huge := append([]byte{}, a...)
	huge = append(huge, make([]byte, 8)...)
	binary.LittleEndian.PutUint32(huge[len(a):], 1<<31)
	if n, valid, corrupt := count(huge); n != 1 || valid != len(a) || !corrupt {
		t.Fatalf("huge length: n=%d valid=%d corrupt=%v", n, valid, corrupt)
	}
}

// TestCheckpointRoundTrip: write + load identity, including names and
// rules, via the mmap path.
func TestCheckpointRoundTrip(t *testing.T) {
	g := gedlib.NewGraph()
	var names []string
	mutate(g, &names, rand.New(rand.NewSource(5)), 300)
	st := State{Graph: g, Names: names, Rules: "ged r1 { person(x); } => x.age = 1;"}
	dir := t.TempDir()
	cs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := cs.writeCheckpoint(dir, Cut{Snap: g.Freeze(), Names: st.Names, Rules: st.Rules}, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if v != g.Version() {
		t.Fatalf("checkpoint version %d, want %d", v, g.Version())
	}
	got, gotV, gotE, err := cs.loadCheckpoint(filepath.Join(dir, ckptName(v)))
	if err != nil {
		t.Fatal(err)
	}
	if gotV != v {
		t.Fatalf("loaded version %d, want %d", gotV, v)
	}
	if gotE != 7 {
		t.Fatalf("loaded epoch %d, want 7", gotE)
	}
	assertStateEqual(t, st, got)
}

// TestCheckpointCorruption: flipped bytes are detected by the CRC, a
// truncated file by the bounds checks; neither panics.
func TestCheckpointCorruption(t *testing.T) {
	g := gedlib.NewGraph()
	var names []string
	mutate(g, &names, rand.New(rand.NewSource(6)), 100)
	dir := t.TempDir()
	cs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := cs.writeCheckpoint(dir, Cut{Snap: g.Freeze(), Names: names}, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ckptName(v))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, corrupt := range [][]byte{
		data[:len(data)/2],                 // truncated
		flip(data, len(data)-3),            // payload bit rot
		flip(data, ckptHeaderBytes+2),      // section table rot
		[]byte("GEDCKPTX garbage follows"), // bad magic
	} {
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := cs.loadCheckpoint(path); err == nil {
			t.Fatalf("case %d: corrupted checkpoint loaded", i)
		}
	}
}

func flip(b []byte, i int) []byte {
	out := append([]byte{}, b...)
	out[i] ^= 0xff
	return out
}

// TestStoreRecoverRoundTrip: create, append batches of deltas, rules,
// periodic checkpoints; recovery reproduces the live state exactly at
// every step, and recovery replays only the tail, not the history.
func TestStoreRecoverRoundTrip(t *testing.T) {
	s := openStore(t, Options{CheckpointEvery: 150})
	g := gedlib.NewGraph()
	var names []string
	rng := rand.New(rand.NewSource(7))
	mutate(g, &names, rng, 50)
	gs, err := s.Create("kb", Cut{Snap: g.Freeze(), Names: names})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("kb", Cut{Snap: g.Freeze(), Names: names}); err != ErrExists {
		t.Fatalf("duplicate Create: %v", err)
	}

	rules := "r"
	if err := gs.AppendRules(g.Version(), rules); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 12; round++ {
		from := g.Version()
		mutate(g, &names, rng, 5+rng.Intn(40))
		d := g.DeltaSince(from)
		dn := make([]string, len(d.Nodes))
		for i, n := range d.Nodes {
			dn[i] = names[n.ID]
		}
		if err := gs.AppendDelta(d, dn); err != nil {
			t.Fatal(err)
		}
		if err := gs.Sync(); err != nil {
			t.Fatal(err)
		}
		if gs.CheckpointDue() {
			if err := gs.Checkpoint(Cut{Snap: g.Freeze(), Names: names, Rules: rules}); err != nil {
				t.Fatal(err)
			}
		}

		rec, err := s.Recover("kb")
		if err != nil {
			t.Fatal(err)
		}
		assertStateEqual(t, State{Graph: g, Names: names, Rules: rules}, rec.State)
		if rec.TruncatedTail {
			t.Fatal("clean log reported truncated")
		}
		if stats := gs.Stats(); rec.ReplayedOps != stats.OpsSinceCheckpoint {
			t.Fatalf("replayed %d ops, checkpoint lag is %d", rec.ReplayedOps, stats.OpsSinceCheckpoint)
		}
	}
	if err := gs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gs.AppendDelta(&gedlib.Delta{}, nil); err != ErrClosed {
		t.Fatalf("append after close: %v", err)
	}

	// Compaction must be bounded: at most RetainCheckpoints checkpoints.
	dir, _ := s.graphDir("kb")
	ckpts, _ := s.listVersions(dir, "ckpt-", ".ged")
	if len(ckpts) > s.Options().RetainCheckpoints {
		t.Fatalf("%d checkpoints retained, want <= %d", len(ckpts), s.Options().RetainCheckpoints)
	}
}

// TestCrashRecoveryOracle is the crash-safety contract: simulate a
// kill-9 (the GraphStore is simply abandoned, never Closed) with a torn
// and CRC-corrupted tail, reopen, and require the recovered graph to
// equal the serial oracle built from the same surviving prefix — and
// OpenGraph to have truncated the garbage so appends continue cleanly.
func TestCrashRecoveryOracle(t *testing.T) {
	s := openStore(t, Options{Fsync: FsyncOff, CheckpointEvery: 1 << 30})
	g := gedlib.NewGraph()
	var names []string
	rng := rand.New(rand.NewSource(9))
	mutate(g, &names, rng, 60)
	oracle := gedlib.NewGraph() // replays exactly what reaches the WAL
	if err := oracle.ApplyDelta(g.DeltaSince(0)); err != nil {
		t.Fatal(err)
	}
	gs, err := s.Create("kb", Cut{Snap: g.Freeze(), Names: names})
	if err != nil {
		t.Fatal(err)
	}
	for burst := 0; burst < 8; burst++ {
		from := g.Version()
		mutate(g, &names, rng, 10+rng.Intn(20))
		d := g.DeltaSince(from)
		dn := make([]string, len(d.Nodes))
		for i, n := range d.Nodes {
			dn[i] = names[n.ID]
		}
		if err := gs.AppendDelta(d, dn); err != nil {
			t.Fatal(err)
		}
		if err := oracle.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no Close, and the tail gets a torn half-frame plus a
	// CRC-corrupted copy of a real record.
	dir, _ := s.graphDir("kb")
	segs, _ := s.listVersions(dir, "wal-", ".log")
	segPath := filepath.Join(dir, segName(segs[len(segs)-1]))
	garbage := frame(encodeRules(time.Now().UnixNano(), 0, g.Version(), "never lands"))
	garbage[9] ^= 0xff // corrupt the payload under an intact CRC header
	garbage = append(garbage, frame([]byte("torn"))[:5]...)
	seg, err := os.OpenFile(segPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Write(garbage); err != nil {
		t.Fatal(err)
	}
	_ = seg.Close()
	before, _ := os.Stat(segPath)

	gs2, rec, err := s.OpenGraph("kb")
	if err != nil {
		t.Fatal(err)
	}
	if !rec.TruncatedTail {
		t.Fatal("corrupted tail not reported")
	}
	if rec.State.Graph.String() != oracle.String() {
		t.Fatalf("recovered graph differs from oracle:\ngot:\n%s\nwant:\n%s", rec.State.Graph.String(), oracle.String())
	}
	if rec.State.Graph.Version() != oracle.Version() {
		t.Fatalf("recovered version %d, oracle %d", rec.State.Graph.Version(), oracle.Version())
	}
	after, _ := os.Stat(segPath)
	if after.Size() >= before.Size() {
		t.Fatalf("corrupt tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
	// The reopened log keeps accepting and recovering appends.
	from := rec.State.Graph.Version()
	rec.State.Graph.SetAttr(0, "post", gedlib.Int(1))
	if err := gs2.AppendDelta(rec.State.Graph.DeltaSince(from), nil); err != nil {
		t.Fatal(err)
	}
	if err := gs2.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, err := s.Recover("kb")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := rec2.State.Graph.Attr(0, "post"); !ok || !v.Equal(gedlib.Int(1)) {
		t.Fatal("post-repair append lost")
	}
	if rec2.TruncatedTail {
		t.Fatal("repaired log still reports truncation")
	}
}

// TestTailFollowsRotation: a tailer sees every delta exactly once, in
// order, across checkpoint rotations, and measures staleness from the
// record timestamps.
func TestTailFollowsRotation(t *testing.T) {
	// Generous retention: the leader runs far ahead of the tailer here,
	// and this test is about rotation-following, not compaction lag
	// (TestTailLagResync covers that).
	s := openStore(t, Options{Fsync: FsyncOff, CheckpointEvery: 40, RetainCheckpoints: 64})
	g := gedlib.NewGraph()
	var names []string
	rng := rand.New(rand.NewSource(13))
	mutate(g, &names, rng, 30)
	gs, err := s.Create("kb", Cut{Snap: g.Freeze(), Names: names})
	if err != nil {
		t.Fatal(err)
	}

	rec, err := s.Recover("kb")
	if err != nil {
		t.Fatal(err)
	}
	replica := rec.State.Graph
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	applied := make(chan uint64, 256)
	tailErr := make(chan error, 1)
	go func() {
		tailErr <- s.Tail(ctx, "kb", rec, time.Millisecond, func(tr TailRecord) error {
			if tr.Delta != nil {
				if time.Since(tr.AppendedAt) < 0 {
					return fmt.Errorf("record from the future")
				}
				if err := replica.ApplyDelta(tr.Delta); err != nil {
					return err
				}
				applied <- tr.Delta.ToVersion
			}
			return nil
		})
	}()

	for round := 0; round < 10; round++ {
		from := g.Version()
		mutate(g, &names, rng, 15)
		if err := gs.AppendDelta(g.DeltaSince(from), make([]string, 64)); err != nil {
			t.Fatal(err)
		}
		if gs.CheckpointDue() {
			if err := gs.Checkpoint(Cut{Snap: g.Freeze(), Names: names}); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case v := <-applied:
			if v == g.Version() {
				cancel()
				if err := <-tailErr; err != context.Canceled {
					t.Fatalf("tail exit: %v", err)
				}
				if replica.String() != g.String() {
					t.Fatal("replica diverged from leader")
				}
				_ = gs.Close()
				return
			}
		case err := <-tailErr:
			t.Fatalf("tail died: %v", err)
		case <-deadline:
			t.Fatalf("follower never caught up: replica at %d, leader at %d", replica.Version(), g.Version())
		}
	}
}

// TestTailLagResync: a tailer that falls behind compaction gets
// ErrLagBehind, re-recovers, and lands on the leader's state — the
// follower resync protocol.
func TestTailLagResync(t *testing.T) {
	s := openStore(t, Options{Fsync: FsyncOff, CheckpointEvery: 20, RetainCheckpoints: 1})
	g := gedlib.NewGraph()
	var names []string
	rng := rand.New(rand.NewSource(17))
	mutate(g, &names, rng, 20)
	gs, err := s.Create("kb", Cut{Snap: g.Freeze(), Names: names})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.Recover("kb")
	if err != nil {
		t.Fatal(err)
	}
	// Leader sprints: several checkpoint rotations with retention 1, so
	// the recovery point's segment is compacted away before the tailer
	// ever looks at it.
	for round := 0; round < 8; round++ {
		from := g.Version()
		mutate(g, &names, rng, 25)
		if err := gs.AppendDelta(g.DeltaSince(from), make([]string, 64)); err != nil {
			t.Fatal(err)
		}
		if err := gs.Checkpoint(Cut{Snap: g.Freeze(), Names: names}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = s.Tail(ctx, "kb", rec, time.Millisecond, func(TailRecord) error { return nil })
	if !errors.Is(err, ErrLagBehind) {
		t.Fatalf("lagged tail: got %v, want ErrLagBehind", err)
	}
	rec2, err := s.Recover("kb")
	if err != nil {
		t.Fatal(err)
	}
	if rec2.State.Graph.String() != g.String() {
		t.Fatal("re-recovered state diverges from leader")
	}
	_ = gs.Close()
}

// TestTailReportsDeletedGraph: a tailer whose graph the leader deletes
// gets ErrNotFound instead of polling the unlinked segment forever.
func TestTailReportsDeletedGraph(t *testing.T) {
	s := openStore(t, Options{Fsync: FsyncOff})
	g := gedlib.NewGraph()
	var names []string
	rng := rand.New(rand.NewSource(5))
	gs, err := s.Create("kb", Cut{Snap: g.Freeze()})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.Recover("kb")
	if err != nil {
		t.Fatal(err)
	}
	mutate(g, &names, rng, 5)
	if err := gs.AppendDelta(g.DeltaSince(0), make([]string, 64)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	applied := make(chan struct{}, 1)
	tailErr := make(chan error, 1)
	go func() {
		tailErr <- s.Tail(ctx, "kb", rec, time.Millisecond, func(TailRecord) error {
			applied <- struct{}{}
			return nil
		})
	}()
	<-applied // the tail holds the segment open
	_ = gs.Close()
	if err := s.Delete("kb"); err != nil {
		t.Fatal(err)
	}
	if err := <-tailErr; !errors.Is(err, ErrNotFound) {
		t.Fatalf("tail of a deleted graph: got %v, want ErrNotFound", err)
	}
}

// failSyncFS fails every File.Sync while fail is set.
type failSyncFS struct {
	FS
	fail *atomic.Bool
}

type failSyncFile struct {
	File
	fail *atomic.Bool
}

func (fs failSyncFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return failSyncFile{f, fs.fail}, nil
}

func (f failSyncFile) Sync() error {
	if f.fail.Load() {
		return errors.New("injected sync failure")
	}
	return f.File.Sync()
}

// TestTailNoticesDroppedRecord: a tailer reads a record before the
// leader syncs it; the sync fails, so the leader drops the record and
// logs a shorter one from the same version in its place. The tail must
// fail, not skip the new record as one it already has, and a
// re-recovery gives the leader's state.
func TestTailNoticesDroppedRecord(t *testing.T) {
	var fail atomic.Bool
	s := openStore(t, Options{Fsync: FsyncBatch, FS: failSyncFS{OSFS(), &fail}})
	g := gedlib.NewGraph()
	var names []string
	rng := rand.New(rand.NewSource(9))
	mutate(g, &names, rng, 30)
	gs, err := s.Create("kb", Cut{Snap: g.Freeze(), Names: names})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	rec, err := s.Recover("kb")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	applied := make(chan uint64, 16)
	tailErr := make(chan error, 1)
	go func() {
		tailErr <- s.Tail(ctx, "kb", rec, time.Millisecond, func(tr TailRecord) error {
			applied <- tr.Delta.ToVersion
			return nil
		})
	}()
	await := func(v uint64) {
		t.Helper()
		for got := uint64(0); got != v; {
			select {
			case got = <-applied:
			case err := <-tailErr:
				t.Fatalf("tail ended awaiting version %d: %v", v, err)
			}
		}
	}

	d, dn := step(g, &names, rng, 5)
	if err := gs.AppendDelta(d, dn); err != nil {
		t.Fatal(err)
	}
	if err := gs.Sync(); err != nil {
		t.Fatal(err)
	}
	lost, err := gedlib.ImportImage(g.Freeze().Image(nil))
	if err != nil {
		t.Fatal(err)
	}
	lostNames := slices.Clone(names)
	d, dn = step(lost, &lostNames, rng, 10)
	if err := gs.AppendDelta(d, dn); err != nil {
		t.Fatal(err)
	}
	await(d.ToVersion)
	fail.Store(true)
	if err := gs.Sync(); err == nil {
		t.Fatal("sync succeeded with syncs failing")
	}
	fail.Store(false)

	d, dn = step(g, &names, rng, 3)
	if err := gs.AppendDelta(d, dn); err != nil {
		t.Fatal(err)
	}
	if err := gs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := <-tailErr; err == nil || !strings.Contains(err.Error(), "dropped a record") {
		t.Fatalf("tail over a dropped record: got %v, want the cut reported", err)
	}
	rec, err = s.Recover("kb")
	if err != nil {
		t.Fatal(err)
	}
	if rec.TruncatedTail || rec.State.Graph.String() != g.String() {
		t.Fatalf("re-recovered state (truncated tail %v) diverges from the leader's", rec.TruncatedTail)
	}
}

// TestFailedSyncRestoresStats: a failed sync drops the records it did
// not cover, so the durability counters read what the last good sync
// left, and the ops a crash would replay are the ops recovery replays.
func TestFailedSyncRestoresStats(t *testing.T) {
	var fail atomic.Bool
	s := openStore(t, Options{Fsync: FsyncBatch, FS: failSyncFS{OSFS(), &fail}})
	g := gedlib.NewGraph()
	var names []string
	rng := rand.New(rand.NewSource(4))
	mutate(g, &names, rng, 20)
	gs, err := s.Create("kb", Cut{Snap: g.Freeze(), Names: names})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	appendSync := func(g *gedlib.Graph, names *[]string, n int) (int, error) {
		t.Helper()
		d, dn := step(g, names, rng, n)
		if err := gs.AppendDelta(d, dn); err != nil {
			t.Fatal(err)
		}
		return d.Size(), gs.Sync()
	}
	first, err := appendSync(g, &names, 5)
	if err != nil {
		t.Fatal(err)
	}
	good := gs.Stats()
	if good.OpsSinceCheckpoint != first || good.WALRecords != 1 {
		t.Fatalf("after one %d-op record: %+v", first, good)
	}

	lost, err := gedlib.ImportImage(g.Freeze().Image(nil))
	if err != nil {
		t.Fatal(err)
	}
	lostNames := slices.Clone(names)
	fail.Store(true)
	if _, err := appendSync(lost, &lostNames, 10); err == nil {
		t.Fatal("sync succeeded with syncs failing")
	}
	fail.Store(false)
	if got := gs.Stats(); got != good {
		t.Fatalf("after a failed sync the stats read\n%+v\nwant the last good sync's\n%+v", got, good)
	}

	second, err := appendSync(g, &names, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := gs.Stats()
	if st.OpsSinceCheckpoint != first+second || st.WALRecords != 2 {
		t.Fatalf("after the dropped record and a %d-op one: %+v", second, st)
	}
	rec, err := s.Recover("kb")
	if err != nil {
		t.Fatal(err)
	}
	if rec.ReplayedOps != st.OpsSinceCheckpoint {
		t.Fatalf("recovery replays %d ops, OpsSinceCheckpoint reads %d", rec.ReplayedOps, st.OpsSinceCheckpoint)
	}
}
