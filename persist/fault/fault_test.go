package fault

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"gedlib"
	"gedlib/persist"
)

// grow appends n nodes (with attrs and a chain edge) to g, returning
// wire names parallel to the graph's nodes.
func grow(g *gedlib.Graph, names *[]string, n int) {
	for i := 0; i < n; i++ {
		id := g.AddNode("person")
		*names = append(*names, fmt.Sprintf("n%d", int(id)))
		g.SetAttr(id, "seq", gedlib.Int(int(id)))
		if id > 0 {
			g.AddEdge(id-1, "knows", id)
		}
	}
}

func TestEnospcBudget(t *testing.T) {
	fs := New(1, nil)
	fs.Inject(Rule{Kind: "enospc", Op: OpWrite, Err: syscall.ENOSPC, AfterBytes: 10})
	f, err := fs.OpenFile(filepath.Join(t.TempDir(), "x"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write([]byte("12345678")); err != nil || n != 8 {
		t.Fatalf("within budget: n=%d err=%v", n, err)
	}
	// This write crosses the budget: exactly the 2 bytes that fit land.
	n, err := f.Write([]byte("abcdefgh"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("crossing budget: err=%v, want ENOSPC", err)
	}
	if n != 2 {
		t.Fatalf("crossing budget: %d bytes landed, want 2 (the torn prefix)", n)
	}
	if n, err := f.Write([]byte("zz")); err == nil || n != 0 {
		t.Fatalf("after budget: n=%d err=%v, want sticky ENOSPC", n, err)
	}
	if !persist.IsTransient(syscall.EIO) || persist.IsTransient(err) {
		t.Fatalf("classification: ENOSPC must be permanent, EIO transient")
	}
	fs.Heal()
	if _, err := f.Write([]byte("ok")); err != nil {
		t.Fatalf("after heal: %v", err)
	}
	data, _ := os.ReadFile(f.Name())
	if string(data) != "12345678"+"ab"+"ok" {
		t.Fatalf("file contents %q", data)
	}
	if got := fs.Injected()["enospc"]; got != 2 {
		t.Fatalf("injected count %d, want 2", got)
	}
}

func TestKthSyncAndPathFilter(t *testing.T) {
	dir := t.TempDir()
	fs := New(1, nil)
	fs.Inject(Rule{Kind: "eio", Op: OpSync, Path: "wal-", Err: syscall.EIO, Kth: 2})
	wal, err := fs.OpenFile(filepath.Join(dir, "wal-0001.log"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	other, err := fs.OpenFile(filepath.Join(dir, "data.bin"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.Sync(); err != nil {
		t.Fatalf("sync #1 should pass: %v", err)
	}
	if err := other.Sync(); err != nil {
		t.Fatalf("non-matching path must never fail: %v", err)
	}
	if err := wal.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync #2: %v, want EIO", err)
	}
	if err := wal.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync #3 must stay failed (sticky): %v", err)
	}
}

func TestTornWriteDeterministic(t *testing.T) {
	payload := []byte(strings.Repeat("x", 100))
	sizes := func(seed int64) []int {
		fs := New(seed, nil)
		fs.Inject(Rule{Kind: "torn", Op: OpWrite, Err: syscall.EIO})
		var out []int
		for i := 0; i < 3; i++ {
			f, err := fs.OpenFile(filepath.Join(t.TempDir(), "x"), os.O_CREATE|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			n, werr := f.Write(payload)
			if !errors.Is(werr, syscall.EIO) {
				t.Fatalf("torn write: %v", werr)
			}
			if n <= 0 || n >= len(payload) {
				t.Fatalf("torn size %d not a proper prefix of %d", n, len(payload))
			}
			out = append(out, n)
		}
		return out
	}
	a, b := sizes(7), sizes(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different torn sizes: %v vs %v", a, b)
		}
	}
}

func TestParse(t *testing.T) {
	rules, err := Parse("enospc:path=wal-:after=65536; eio:op=sync:k=2 ;torn:torn=3:count=1;slow:d=2ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 4 {
		t.Fatalf("%d rules, want 4", len(rules))
	}
	if rules[0].AfterBytes != 65536 || !errors.Is(rules[0].Err, syscall.ENOSPC) || rules[0].Op != OpWrite {
		t.Fatalf("enospc rule %+v", rules[0])
	}
	if rules[1].Op != OpSync || rules[1].Kth != 2 {
		t.Fatalf("eio rule %+v", rules[1])
	}
	if rules[2].TornBytes != 3 || rules[2].Count != 1 {
		t.Fatalf("torn rule %+v", rules[2])
	}
	if rules[3].Delay != 2*time.Millisecond || rules[3].Err != nil {
		t.Fatalf("slow rule %+v", rules[3])
	}
	for _, bad := range []string{"", "bogus", "slow", "eio:op=frobnicate", "eio:k"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

// TestPartition: one partition directive severs the store in every
// direction — opens, reads, writes, syncs and renames all fail with EIO
// for matching paths — and Heal restores full service.
func TestPartition(t *testing.T) {
	rules, err := Parse("partition:path=g1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 5 {
		t.Fatalf("partition expanded to %d rules, want 5 (one per op class)", len(rules))
	}
	ops := map[Op]bool{}
	for _, r := range rules {
		ops[r.Op] = true
		if r.Path != "g1" || !errors.Is(r.Err, syscall.EIO) {
			t.Fatalf("partition rule %+v", r)
		}
	}
	for _, op := range []Op{OpWrite, OpSync, OpOpen, OpRead, OpRename} {
		if !ops[op] {
			t.Fatalf("partition missing op class %v", op)
		}
	}

	dir := t.TempDir()
	fs := New(1, nil)
	path := filepath.Join(dir, "g1-wal.log")
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("before")); err != nil {
		t.Fatal(err)
	}
	fs.Inject(rules...)

	if _, err := fs.OpenFile(path, os.O_RDONLY, 0); !errors.Is(err, syscall.EIO) {
		t.Fatalf("open across partition: %v, want EIO", err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("write across partition: %v, want EIO", err)
	}
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync across partition: %v, want EIO", err)
	}
	if _, err := f.ReadAt(make([]byte, 3), 0); !errors.Is(err, syscall.EIO) {
		t.Fatalf("read across partition: %v, want EIO", err)
	}
	if err := fs.Rename(path, path+".moved"); !errors.Is(err, syscall.EIO) {
		t.Fatalf("rename across partition: %v, want EIO", err)
	}
	// Unmatched paths stay reachable: the partition is scoped, not global.
	if _, err := fs.OpenFile(filepath.Join(dir, "other"), os.O_CREATE|os.O_WRONLY, 0o644); err != nil {
		t.Fatalf("unmatched path must not be partitioned: %v", err)
	}

	fs.Heal()
	if _, err := f.ReadAt(make([]byte, 3), 0); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if got := fs.Injected()["partition"]; got < 5 {
		t.Fatalf("injected count %d, want >= 5", got)
	}
}

// TestEnospcMidCheckpoint pins the checkpoint crash contract under
// injected disk-full: a checkpoint write that fails partway (temp file
// hits ENOSPC before the rename) must leave the previous checkpoint
// loadable, recovery intact, and no temp debris; after the disk heals
// the next checkpoint succeeds.
func TestEnospcMidCheckpoint(t *testing.T) {
	dir := t.TempDir()
	fs := New(3, nil)
	s, err := persist.Open(dir, persist.Options{FS: fs, CheckpointEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	g := gedlib.NewGraph()
	var names []string
	grow(g, &names, 50)
	gs, err := s.Create("kb", persist.Cut{Snap: g.Freeze(), Names: names})
	if err != nil {
		t.Fatal(err)
	}
	// Some appended tail on top of the initial checkpoint.
	from := g.Version()
	grow(g, &names, 20)
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

	// Disk fills up 1KiB into the checkpoint image.
	fs.Inject(Rule{Kind: "enospc", Op: OpWrite, Path: ".tmp-ckpt-", Err: syscall.ENOSPC, AfterBytes: 1024})
	grow(g, &names, 5)
	if err := gs.Checkpoint(persist.Cut{Snap: g.Freeze(), Names: names}); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("checkpoint under disk-full: %v, want ENOSPC", err)
	}

	// The failed attempt must not have published anything or left debris.
	des, err := os.ReadDir(filepath.Join(dir, "kb"))
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if strings.HasPrefix(de.Name(), ".tmp-") {
			t.Fatalf("temp checkpoint %s left behind", de.Name())
		}
	}

	// Recovery still works from the previous checkpoint + WAL tail,
	// through the same (still-faulted) FS: only tmp-ckpt writes fail.
	rec, err := s.Recover("kb")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rec.State.Graph.Version(), from+uint64(d.Size()); got != want {
		t.Fatalf("recovered version %d, want %d (checkpoint + synced tail)", got, want)
	}

	// Heal; the next checkpoint publishes and recovery follows it.
	fs.Heal()
	if err := gs.Checkpoint(persist.Cut{Snap: g.Freeze(), Names: names}); err != nil {
		t.Fatal(err)
	}
	rec, err = s.Recover("kb")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State.Graph.Version() != g.Version() {
		t.Fatalf("post-heal recovery at %d, want %d", rec.State.Graph.Version(), g.Version())
	}
	if rec.CheckpointVersion != g.Version() {
		t.Fatalf("post-heal checkpoint at %d, want %d", rec.CheckpointVersion, g.Version())
	}
}

// TestTornWALAppendRepair pins the dirty-tail contract: a torn WAL
// append fails the record, and the NEXT append first truncates the
// garbage so the log stays a clean record sequence — recovery sees
// every acked record and nothing else.
func TestTornWALAppendRepair(t *testing.T) {
	dir := t.TempDir()
	fs := New(11, nil)
	s, err := persist.Open(dir, persist.Options{FS: fs, CheckpointEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	g := gedlib.NewGraph()
	var names []string
	grow(g, &names, 10)
	gs, err := s.Create("kb", persist.Cut{Snap: g.Freeze(), Names: names})
	if err != nil {
		t.Fatal(err)
	}
	buildDelta := func() (*gedlib.Delta, []string) {
		from := g.Version()
		grow(g, &names, 5)
		d := g.DeltaSince(from)
		dn := make([]string, len(d.Nodes))
		for i, n := range d.Nodes {
			dn[i] = names[n.ID]
		}
		return d, dn
	}
	d1, n1 := buildDelta()
	if err := gs.AppendDelta(d1, n1); err != nil {
		t.Fatal(err)
	}
	fs.Inject(Rule{Kind: "torn", Op: OpWrite, Path: "wal-", Err: syscall.EIO})
	d2, n2 := buildDelta()
	if err := gs.AppendDelta(d2, n2); !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn append: %v, want EIO", err)
	}
	fs.Heal()
	// Retrying the SAME record (what serve's transient-retry does) must
	// first truncate the torn prefix, or it would land after garbage
	// and recovery would cut it off.
	if err := gs.AppendDelta(d2, n2); err != nil {
		t.Fatal(err)
	}
	d3, n3 := buildDelta()
	if err := gs.AppendDelta(d3, n3); err != nil {
		t.Fatal(err)
	}
	if err := gs.Sync(); err != nil {
		t.Fatal(err)
	}
	rec, err := s.Recover("kb")
	if err != nil {
		t.Fatal(err)
	}
	if rec.TruncatedTail {
		t.Fatalf("recovery saw a torn tail; the dirty-tail repair should have removed it")
	}
	if rec.State.Graph.Version() != g.Version() {
		t.Fatalf("recovered version %d, want %d", rec.State.Graph.Version(), g.Version())
	}
	if rec.State.Graph.NumNodes() != g.NumNodes() {
		t.Fatalf("recovered %d nodes, want %d", rec.State.Graph.NumNodes(), g.NumNodes())
	}
}
