package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gedlib"
	"gedlib/persist"
	"gedlib/workload"
)

// copyTree copies a graph's durable directory file by file — the moral
// equivalent of what a crash leaves on disk, captured point-in-time
// while the writer is quiescent.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	des, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		s, d := filepath.Join(src, de.Name()), filepath.Join(dst, de.Name())
		if de.IsDir() {
			copyTree(t, s, d)
			continue
		}
		data, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(d, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeCrashRecoveryOracle is the serve-level crash-safety check:
// hammer a durable catalog with concurrent writers, "crash" by copying
// the data directory as-is (never a clean Close), corrupt the WAL tail
// with garbage for good measure, restore a fresh catalog from the copy,
// and require the recovered violation set to equal a completely fresh
// engine's verdict over the live graph — byte-identical, not just
// plausible.
func TestServeCrashRecoveryOracle(t *testing.T) {
	base := t.TempDir()
	leaderDir := filepath.Join(base, "leader")
	cat, err := NewCatalog(Config{
		MaxDelay: time.Millisecond, FlushOps: 8,
		DataDir: leaderDir, CheckpointEvery: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately NOT closed: a crash never runs the shutdown path.

	g, _ := workload.KnowledgeBase(23, 40, 0.2)
	data, err := gedlib.MarshalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
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

	const writers, writesPerWriter = 4, 25
	types := []string{"programmer", "psychologist", "video game"}
	ctx := context.Background()
	var wg sync.WaitGroup
	added := make([][]string, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(700 + w)))
			for i := 0; i < writesPerWriter; i++ {
				node := fmt.Sprintf("n%d", rng.Intn(numNodes))
				var op Op
				switch rng.Intn(3) {
				case 0:
					op = Op{Op: "set_attr", ID: node, Attr: "type", Value: types[rng.Intn(len(types))]}
				case 1:
					op = Op{Op: "add_node", ID: fmt.Sprintf("w%d-%d", w, i), Label: "person",
						Attrs: map[string]any{"type": "artist"}}
					added[w] = append(added[w], op.ID)
				default:
					op = Op{Op: "add_edge", Src: node, Label: "create",
						Dst: fmt.Sprintf("n%d", rng.Intn(numNodes))}
				}
				if _, err := ent.Mutate(ctx, []Op{op}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Every Mutate above returned, so every write is in the WAL. Crash:
	// snapshot the directory, then smear garbage over the copy's tail
	// (recovery must truncate it, not crash on it).
	crashDir := filepath.Join(base, "crash")
	copyTree(t, leaderDir, crashDir)
	segs, err := filepath.Glob(filepath.Join(crashDir, "kb", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in the crash copy: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rcat, err := NewCatalog(Config{MaxDelay: time.Millisecond, DataDir: crashDir})
	if err != nil {
		t.Fatal(err)
	}
	defer rcat.Close()
	names, err := rcat.Restore(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "kb" {
		t.Fatalf("restored %v, want [kb]", names)
	}
	rent, err := rcat.Get("kb")
	if err != nil {
		t.Fatal(err)
	}
	rview := rent.CurrentView()

	// Serial oracle: a completely fresh engine over the twin of the
	// leader's graph — no shared caches, no recovered state.
	oracle, err := gedlib.New().Validate(ctx, twin.g, sigma)
	version := twin.g.Version()
	if err != nil {
		t.Fatal(err)
	}
	if rview.Version != version {
		t.Fatalf("recovered at version %d, leader at %d", rview.Version, version)
	}
	a, b := canonViolations(rview.Violations), canonViolations(oracle)
	if len(a) != len(b) {
		t.Fatalf("recovered %d violations, oracle %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("violation sets differ at %d: %s vs %s", i, a[i], b[i])
		}
	}

	// The restored entry is a full citizen: every name added before the
	// crash resolves, and new writes land.
	for w := range added {
		for _, name := range added[w] {
			if _, ok := rview.Names.Resolve(name); !ok {
				t.Fatalf("node %s added before the crash does not resolve after recovery", name)
			}
		}
	}
	if _, err := rent.Mutate(ctx, []Op{{Op: "set_attr", ID: "n0", Attr: "name", Value: "post-crash"}}); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerPropagation: a follower catalog over a leader's data
// directory serves reads that converge on the leader's writes, rejects
// every mutation with ErrReadOnly, reports replication stats, and picks
// up graphs created after it started following.
func TestFollowerPropagation(t *testing.T) {
	dir := t.TempDir()
	leader, lent := newTestEntry(t, Config{MaxDelay: time.Millisecond, DataDir: dir})

	fol, err := NewCatalog(Config{DataDir: dir, FollowPoll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fol.Close)
	if err := fol.Follow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !fol.IsFollower() {
		t.Fatal("IsFollower is false after Follow")
	}
	fent, err := fol.Get("g")
	if err != nil {
		t.Fatal(err)
	}

	// The recovered replica carries the leader's rules: the seeded
	// violation (an artist created a video game) is already visible.
	if vs := fent.CurrentView().Violations; len(vs) != 1 {
		t.Fatalf("follower sees %d violations before any writes, want 1", len(vs))
	}

	// Read-only, everywhere.
	if _, err := fent.Mutate(context.Background(), []Op{{Op: "set_attr", ID: "dev", Attr: "type", Value: "x"}}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower Mutate returned %v, want ErrReadOnly", err)
	}
	if _, err := fent.RegisterRules(context.Background(), "ged x on (a:b) { then a.c = 1 }"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower RegisterRules returned %v, want ErrReadOnly", err)
	}
	if _, err := fol.Create("other", nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower Create returned %v, want ErrReadOnly", err)
	}
	if err := fol.Delete("g"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower Delete returned %v, want ErrReadOnly", err)
	}

	// A leader write propagates: the repair must reach the replica.
	res, err := lent.Mutate(context.Background(), []Op{{Op: "set_attr", ID: "dev", Attr: "type", Value: "programmer"}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		v := fent.CurrentView()
		if v.Version >= res.Version {
			if len(v.Violations) != 0 {
				t.Fatalf("follower at version %d still sees %d violations", v.Version, len(v.Violations))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at version %d, leader write at %d", v.Version, res.Version)
		}
		time.Sleep(2 * time.Millisecond)
	}
	s := fent.Stats()
	if !s.Follower || s.FollowerRecords == 0 {
		t.Fatalf("follower stats: %+v", s)
	}
	if s.FollowerLagNanos <= 0 {
		t.Fatalf("follower lag %d, want > 0", s.FollowerLagNanos)
	}

	// A graph created after Follow started appears via the rescan.
	if _, err := leader.Create("late", nil); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		if _, err := fol.Get("late"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never picked up the late-created graph")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestFollowerAppliesRecordsInPlace: a follower applies the records
// that carry no delta — a rules registration, a promotion's epoch bump
// — in place and counts each, instead of failing its tail and
// re-recovering the whole graph (which would swap its session).
func TestFollowerAppliesRecordsInPlace(t *testing.T) {
	dir := t.TempDir()
	_, lent := newTestEntry(t, Config{MaxDelay: time.Millisecond, DataDir: dir})
	fol, err := NewCatalog(Config{DataDir: dir, FollowPoll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fol.Close)
	if err := fol.Follow(context.Background()); err != nil {
		t.Fatal(err)
	}
	fent, err := fol.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	session := func() *gedlib.Session {
		fent.mu.RLock()
		defer fent.mu.RUnlock()
		return fent.sess
	}
	sess, records := session(), fent.Stats().FollowerRecords
	await := func(what string, want uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for fent.Stats().FollowerRecords < want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: follower applied %d records, want %d", what, fent.Stats().FollowerRecords, want)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if got := fent.Stats().FollowerRecords; got != want {
			t.Fatalf("%s: follower applied %d records, want %d", what, got, want)
		}
		if session() != sess {
			t.Fatalf("%s: the follower re-recovered the graph", what)
		}
		if h, cause := fent.Health(); h != "readonly" {
			t.Fatalf("%s: follower health %q (%v), want readonly", what, h, cause)
		}
	}

	rules := `ged r on (x:person) { then x.ok = 1 }`
	if _, err := lent.RegisterRules(context.Background(), rules); err != nil {
		t.Fatal(err)
	}
	await("rules registration", records+1)
	view := fent.CurrentView()
	if len(view.Rules) != 1 || view.Rules[0].Name != "r" || len(view.Violations) != 1 {
		t.Fatalf("follower serves %d rules and %d violations, want the registered rule and 1 violation", len(view.Rules), len(view.Violations))
	}

	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gs, _, err := store.Promote("g")
	if err != nil {
		t.Fatal(err)
	}
	if err := gs.Close(); err != nil {
		t.Fatal(err)
	}
	await("epoch bump", records+2)
}

// TestStatszDurabilityShape pins the JSON wire shape of the durability
// and replication counters in /statsz.
func TestStatszDurabilityShape(t *testing.T) {
	dir := t.TempDir()
	_, ts := startServer(t, Config{MaxDelay: time.Millisecond, DataDir: dir})
	doJSON(t, "POST", ts.URL+"/graphs?name=g", []byte(`{"nodes": [{"id": "a", "label": "thing"}]}`), http.StatusCreated)
	doJSON(t, "POST", ts.URL+"/graphs/g/mutate",
		[]byte(`{"ops":[{"op":"set_attr","id":"a","attr":"x","value":1}]}`), http.StatusOK)

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw struct {
		DataDir  string                       `json:"data_dir"`
		Follower bool                         `json:"follower"`
		Entries  []map[string]json.RawMessage `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if raw.DataDir != dir {
		t.Fatalf("data_dir %q, want %q", raw.DataDir, dir)
	}
	if raw.Follower {
		t.Fatal("leader /statsz reports follower=true")
	}
	if len(raw.Entries) != 1 {
		t.Fatalf("%d entries, want 1", len(raw.Entries))
	}
	e := raw.Entries[0]
	for _, key := range []string{"durable", "wal_bytes", "wal_records", "checkpoint_version", "checkpoint_age_ops"} {
		if _, ok := e[key]; !ok {
			t.Errorf("/statsz entry missing %q: %v", key, e)
		}
	}
	var durable bool
	if err := json.Unmarshal(e["durable"], &durable); err != nil || !durable {
		t.Fatalf("durable = %s, want true", e["durable"])
	}
	var walRecords uint64
	if err := json.Unmarshal(e["wal_records"], &walRecords); err != nil || walRecords == 0 {
		t.Fatalf("wal_records = %s, want > 0", e["wal_records"])
	}

	// /metricsz is fed by the same persist handles; its WAL record
	// counter must agree with the /statsz JSON number.
	mresp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	want := fmt.Sprintf("ged_wal_records_total{graph=%q} %d", "g", walRecords)
	if !strings.Contains(string(body), want) {
		t.Fatalf("/metricsz missing %q;\n%s", want, body)
	}
}
