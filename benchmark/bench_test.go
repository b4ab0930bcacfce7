package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"gedlib"
	"gedlib/persist"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestRegistryWithinLimits(t *testing.T) {
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(workloads))
	}
	if len(endToEnd) != 13 || len(perLayer) != 70 {
		t.Errorf("%d end-to-end and %d per-layer metrics, the issue fixes 13 and 70", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	contract := 0
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		check("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		for _, w := range m.On {
			if workloadNamed(w) == nil {
				t.Errorf("metric %s: unknown workload %q", m.Name, w)
			}
		}
	}
	for _, m := range endToEnd {
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > endToEnd[0].Bound {
			t.Errorf("metric %s has a larger bound than setup_s", m.Name)
		}
		if m.inContract() {
			contract++
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better")
	}
	if contract < 1 || contract > 16 || len(perLayer) > 128 {
		t.Errorf("%d contract end-to-end metrics (want 1..16), %d per-layer (want <= 128)", contract, len(perLayer))
	}
}

// benchmarkJSON is BENCHMARK.json; decoding is strict, so a key beyond
// these six fails the test.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONAgreesWithRegistry(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the limit is 64 KiB", len(raw))
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command has %d words", len(b.Command))
	}
	for _, word := range b.Command {
		if strings.HasPrefix(word, "/") || strings.Contains(word, "..") {
			t.Errorf("command word %q leaves the checkout", word)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the registry %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the registry %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
	}
	var contract []metric
	for _, m := range endToEnd {
		if m.inContract() {
			contract = append(contract, m)
		}
	}
	if len(b.EndToEnd) != len(contract) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the registry has %d every workload reports", len(b.EndToEnd), len(contract))
	}
	for i, m := range contract {
		if got := b.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the registry %s %s %s %v", i, got, m.Name, m.Unit, m.Better, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the registry %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := b.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the registry %s %s %s", i, got, m.Name, m.Unit, m.Better)
		}
	}
}

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	marshal := func(g *gedlib.Graph) string {
		b, err := gedlib.MarshalGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if marshal(denseKB(5, 20, 3)) != marshal(denseKB(5, 20, 3)) || marshal(denseKB(5, 20, 3)) == marshal(denseKB(6, 20, 3)) {
		t.Error("denseKB: same seed must give the same graph, another seed another")
	}
	if marshal(streamKB(5, 40)) != marshal(streamKB(5, 40)) {
		t.Error("streamKB is not deterministic")
	}
	g := streamKB(5, 40)
	a, b := newMutator(9, g), newMutator(9, g)
	for i := 0; i < 50; i++ {
		if !reflect.DeepEqual(a.next(), b.next()) {
			t.Fatalf("mutator: op %d differs between two runs of one seed", i)
		}
	}
	tenants := []tenantInfo{newTenantInfo("t0", g), newTenantInfo("t1", g)}
	streams := map[string]func(seed int64) func() request{
		"read-mostly": func(seed int64) func() request { return newReadMostlyGen(seed, 1, 2, tenants).next },
		"ingest":      func(seed int64) func() request { return newIngestGen(seed, 1, tenants[1]).next },
	}
	for name, mk := range streams {
		x, y, z := mk(3), mk(3), mk(4)
		same := true
		for i := 0; i < 200; i++ {
			rx, ry, rz := x(), y(), z()
			if !reflect.DeepEqual(rx, ry) {
				t.Fatalf("%s: request %d differs between two runs of one seed", name, i)
			}
			same = same && reflect.DeepEqual(rx, rz)
		}
		if same {
			t.Errorf("%s: two seeds give the same stream", name)
		}
	}
}

func TestReadMostlyClientsWriteDisjointNodes(t *testing.T) {
	g := streamKB(5, 40)
	tenants := []tenantInfo{newTenantInfo("t0", g)}
	owner := map[string]int{}
	for c := 0; c < 2; c++ {
		next := newReadMostlyGen(3, c, 2, tenants).next
		for i := 0; i < 20000; i++ {
			for _, op := range next().ops {
				if op.Op != "set_attr" {
					continue
				}
				if prev, ok := owner[op.ID]; ok && prev != c {
					t.Fatalf("node %s is written by both clients: the final state would depend on their interleaving", op.ID)
				}
				owner[op.ID] = c
			}
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{200, 0.95, 190, true}, {199, 0.95, 0, false},
		{20, 0.50, 10, true}, {19, 0.50, 0, false},
		{1000, 0.99, 990, true}, {999, 0.99, 0, false},
		{0, 0.5, 0, false},
	} {
		got, ok := percentile(xs(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if v, ok := tailPercentile(xs(500), 0.99); !ok || v != 490 {
		t.Errorf("tailPercentile(n=500, 0.99) = %v, %v; want the highest supported sample 490", v, ok)
	}
	if _, ok := tailPercentile(xs(19), 0.99); ok {
		t.Error("tailPercentile must refuse fewer than twenty samples")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartileSpread([]float64{3, 1, 2, 10, 9, 4, 8, 5, 7, 6}); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0]
	if got := quartileSpread([]float64{10, 11, 13}); math.Abs(got-3.0/11) > 1e-12 {
		t.Errorf("quartileSpread(10, 11, 13) = %v, want 3/11", got)
	}
}

func TestSelfTimeOnSyntheticTree(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50}, // overlaps a: the overlap counts once
		{ID: 3, Parent: 0, Name: "c", Start: 60, End: 70},
		{ID: 4, Parent: 2, Name: "b1", Start: 25, End: 45},
		{ID: 5, Parent: 3, Name: "c-overrun", Start: 65, End: 90}, // clipped to its parent
	}
	want := map[int32]int64{0: 50, 1: 20, 2: 10, 3: 5, 4: 20, 5: 25}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestPromSum(t *testing.T) {
	text := `# HELP ged_x_total x
ged_x_total{rule="a"} 3
ged_x_total{rule="b"} 4
ged_x_total_more{rule="a"} 100
ged_y_total 7
ged_cache_total{outcome="advance"} 5
ged_cache_total{outcome="freeze"} 1
`
	for _, c := range []struct {
		name, label string
		want        float64
	}{
		{"ged_x_total", "", 7}, {"ged_y_total", "", 7}, {"ged_gone_total", "", 0},
		{"ged_cache_total", `outcome="advance"`, 5},
	} {
		if got := promSum(text, c.name, c.label); got != c.want {
			t.Errorf("promSum(%s, %s) = %v, want %v", c.name, c.label, got, c.want)
		}
	}
}

// TestQuickRuns runs every workload in both modes at -quick size: every
// gate must hold and only registered names may be reported.
func TestQuickRuns(t *testing.T) {
	registered := map[string]bool{}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		registered[m.Name] = true
	}
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := execute(def.Name, 1, 1, traced, true, "")
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed, gates %v", def.Name, traced, res.Failed, res.Attempted, res.Gates)
			}
			for name := range res.Metrics {
				if !registered[name] {
					t.Errorf("%s traced=%v reports unregistered metric %q", def.Name, traced, name)
				}
			}
			if !traced && res.Metrics["failed_frac"] != 0 {
				t.Errorf("%s: failed_frac = %v", def.Name, res.Metrics["failed_frac"])
			}
			if traced && res.Metrics["persist.lost_acked_writes"] != 0 {
				t.Errorf("%s: lost acked writes", def.Name)
			}
			if _, ok := res.Metrics["bench.trace_overhead_frac"]; traced && !ok {
				t.Errorf("%s: the traced run reports no trace overhead", def.Name)
			}
		}
	}
}

func TestCrashImageKeepsOnlyFlushedBytes(t *testing.T) {
	src, dst := t.TempDir(), t.TempDir()
	fs := newCountingFS(persist.OSFS())
	path := filepath.Join(src, "wal-0000000000000000.log")
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("synced|"))
	f.Sync()
	f.Write([]byte("cached only"))
	tmp, err := fs.CreateTemp(src, ".tmp-ckpt-*")
	if err != nil {
		t.Fatal(err)
	}
	tmp.Write([]byte("image"))
	tmp.Sync()
	tmp.Close()
	ckpt := filepath.Join(src, "ckpt-0000000000000001.ged")
	if err := fs.Rename(tmp.Name(), ckpt); err != nil {
		t.Fatal(err)
	}
	if err := fs.crashImage(src, dst); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(filepath.Join(dst, filepath.Base(path))); string(b) != "synced|" {
		t.Errorf("the crash image holds %q of the WAL, want only the synced prefix", b)
	}
	if _, err := os.Stat(filepath.Join(dst, filepath.Base(ckpt))); err == nil {
		t.Error("a rename no SyncDir followed survived the crash cut")
	}
	fs.SyncDir(src)
	dst2 := t.TempDir()
	if err := fs.crashImage(src, dst2); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(filepath.Join(dst2, filepath.Base(ckpt))); string(b) != "image" {
		t.Errorf("after SyncDir the crash image holds %q of the checkpoint, want all of it", b)
	}
	c := fs.counters()
	if c.writes != 3 || c.syncs != 3 || c.checkpoints != 1 || c.walBytes != 18 || c.ckptBytes != 5 {
		t.Errorf("counters = %+v", c)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, e env, fp string, opsPerS, p50 float64) string {
		doc := document{Env: e, Workloads: map[string]*workloadDoc{
			wApply: {EndToEnd: map[string]float64{"ops_per_s": opsPerS, "op_p50_ms": p50, "failed_frac": 0}, Fingerprint: fp},
		}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, doc); err != nil {
			t.Fatal(err)
		}
		return path
	}
	e := env{Go: "go1.24", GOMAXPROCS: 2, NumCPU: 2, Seed: 1}
	var old, same, slow, noisy []string
	for i := 0; i < 10; i++ {
		jitter := 1 + 0.002*float64(i%5)
		old = append(old, write(fmt.Sprintf("old%d.json", i), e, "f", 1000*jitter, 2*jitter))
		same = append(same, write(fmt.Sprintf("same%d.json", i), e, "f", 990*jitter, 2.02*jitter))
		slow = append(slow, write(fmt.Sprintf("slow%d.json", i), e, "f", 800*jitter, 2*jitter))
		noisy = append(noisy, write(fmt.Sprintf("noisy%d.json", i), e, "f", 1000*(1+0.2*float64(i%5)), 2*jitter))
	}
	var out bytes.Buffer
	if err := compareFiles(&out, old, same); err != nil || strings.Contains(out.String(), "regression") {
		t.Errorf("a 1%% change inside a 10%% bound must compare unchanged: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, old, slow); err == nil || !strings.Contains(out.String(), "regression") {
		t.Errorf("a 20%% throughput loss must be a regression and a non-nil error:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, old, noisy); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound must read unresolved: %v\n%s", err, out.String())
	}
	other := e
	other.NumCPU = 64
	if err := compareFiles(&out, old, []string{write("env.json", other, "f", 1000, 2)}); err == nil {
		t.Error("documents of another machine must not compare")
	}
	if err := compareFiles(&out, old, []string{write("fp.json", e, "g", 1000, 2)}); err == nil {
		t.Error("documents of other inputs must not compare")
	}
}
