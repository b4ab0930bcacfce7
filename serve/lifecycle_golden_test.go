package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"gedlib/persist/fault"
)

// The lifecycle goldens pin every surface a graph's lifecycle state
// shows, per reachable state: the /healthz body, /graphs/g/stats,
// /statsz, the ged_serve_graph_health / ged_serve_role /
// ged_leader_epoch samples, and the status and Retry-After of a write
// (mutate) and a rule registration against the graph. The files in
// testdata/lifecycle_*.golden hold them with volatile values masked.

// lifecycleGraph is the graph g every scenario starts from.
const lifecycleGraph = `{"nodes": [{"id": "a", "label": "person"}, {"id": "b", "label": "person"}]}`

// volatileJSON matches the JSON values that vary run to run: every
// duration (the *_ns fields), byte counts, and the follower's failure
// streak, which keeps growing while the tail is failing.
var volatileJSON = regexp.MustCompile(`"([a-z_]+_ns|wal_bytes|follower_failures)":-?[0-9]+`)

func maskVolatile(body []byte, dir string) string {
	body = volatileJSON.ReplaceAll(body, []byte(`"$1":"*"`))
	return strings.ReplaceAll(string(body), dir, "$DIR")
}

// goldenGet fetches path and fails on a non-200 answer.
func goldenGet(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d; body: %s", path, resp.StatusCode, data)
	}
	return data
}

// goldenWrite posts body and reports the status and Retry-After.
func goldenWrite(t *testing.T, ts *httptest.Server, path, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return fmt.Sprintf("%d retry-after=%q", resp.StatusCode, resp.Header.Get("Retry-After"))
}

// lifecycleSurfaces renders every pinned surface of graph g on ts.
func lifecycleSurfaces(t *testing.T, ts *httptest.Server, dir string) string {
	t.Helper()
	var b strings.Builder
	section := func(name, body string) {
		fmt.Fprintf(&b, "== %s\n%s\n", name, strings.TrimRight(body, "\n"))
	}
	section("healthz", maskVolatile(goldenGet(t, ts, "/healthz"), dir))
	section("stats", maskVolatile(goldenGet(t, ts, "/graphs/g/stats"), dir))
	section("statsz", maskVolatile(goldenGet(t, ts, "/statsz"), dir))
	var gauges []string
	for _, line := range strings.Split(string(goldenGet(t, ts, "/metricsz")), "\n") {
		for _, fam := range []string{"ged_serve_graph_health{", "ged_serve_role{", "ged_leader_epoch{"} {
			if strings.HasPrefix(line, fam) {
				gauges = append(gauges, line)
			}
		}
	}
	section("gauges", strings.Join(gauges, "\n"))
	section("mutate", goldenWrite(t, ts, "/graphs/g/mutate", `{"ops":[{"op":"add_node","id":"w","label":"person"}]}`))
	section("rules", goldenWrite(t, ts, "/graphs/g/rules", `ged r on (x:person) { then x.ok = 1 }`))
	return b.String()
}

// awaitHealth polls /healthz until graph g reports want.
func awaitHealth(t *testing.T, ts *httptest.Server, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		hz := doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK)
		if g, _ := hz["graphs"].(map[string]any)["g"].(map[string]any); g != nil && g["health"] == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("graph g never reached health %q: %v", want, hz)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// lifecycleLeader starts a durable leader holding graph g with one
// acked write.
func lifecycleLeader(t *testing.T, dir string, fs *fault.FS) *httptest.Server {
	t.Helper()
	cfg := Config{DataDir: dir, MaxDelay: time.Millisecond, ProbeInterval: time.Hour}
	if fs != nil {
		cfg.FS = fs
	}
	_, ts := startServer(t, cfg)
	doJSON(t, "POST", ts.URL+"/graphs?name=g", []byte(lifecycleGraph), http.StatusCreated)
	doJSON(t, "POST", ts.URL+"/graphs/g/mutate",
		[]byte(`{"ops":[{"op":"set_attr","id":"a","attr":"x","value":1}]}`), http.StatusOK)
	return ts
}

// lifecycleFollower starts a follower tailing dir.
func lifecycleFollower(t *testing.T, dir string, fs *fault.FS) *httptest.Server {
	t.Helper()
	cfg := Config{DataDir: dir, FollowPoll: 2 * time.Millisecond, MaxDelay: time.Millisecond, ProbeInterval: time.Hour}
	if fs != nil {
		cfg.FS = fs
	}
	srv, ts := startServer(t, cfg)
	if err := srv.Follow(context.Background()); err != nil {
		t.Fatal(err)
	}
	return ts
}

// lifecycleScenarios drive graph g into each reachable state through
// the public API and fault injection only, and return the server whose
// surfaces the golden pins.
var lifecycleScenarios = []struct {
	state string
	setup func(t *testing.T, dir string) *httptest.Server
}{
	{"leader_ok", func(t *testing.T, dir string) *httptest.Server {
		return lifecycleLeader(t, dir, nil)
	}},
	{"leader_degraded", func(t *testing.T, dir string) *httptest.Server {
		ffs := fault.New(1, nil)
		ts := lifecycleLeader(t, dir, ffs)
		ffs.Inject(fault.Rule{Kind: "eio", Op: fault.OpSync, Err: syscall.EIO})
		doJSON(t, "POST", ts.URL+"/graphs/g/mutate",
			[]byte(`{"ops":[{"op":"add_node","id":"c","label":"person"}]}`), http.StatusInternalServerError)
		awaitHealth(t, ts, "degraded")
		return ts
	}},
	{"fenced", func(t *testing.T, dir string) *httptest.Server {
		ts := lifecycleLeader(t, dir, nil)
		fts := lifecycleFollower(t, dir, nil)
		doJSON(t, "POST", fts.URL+"/promote", nil, http.StatusOK)
		doJSON(t, "POST", ts.URL+"/graphs/g/mutate",
			[]byte(`{"ops":[{"op":"add_node","id":"c","label":"person"}]}`), http.StatusServiceUnavailable)
		awaitHealth(t, ts, "fenced")
		return ts
	}},
	{"promoted", func(t *testing.T, dir string) *httptest.Server {
		lifecycleLeader(t, dir, nil)
		fts := lifecycleFollower(t, dir, nil)
		doJSON(t, "POST", fts.URL+"/promote", nil, http.StatusOK)
		return fts
	}},
	{"follower_ok", func(t *testing.T, dir string) *httptest.Server {
		lifecycleLeader(t, dir, nil)
		return lifecycleFollower(t, dir, nil)
	}},
	{"follower_lagging", func(t *testing.T, dir string) *httptest.Server {
		ts := lifecycleLeader(t, dir, nil)
		ffs := fault.New(1, nil)
		fts := lifecycleFollower(t, dir, ffs)
		// Every read of the follower's store fails: the tail cannot read
		// the next record, and re-recovery cannot list the directory.
		ffs.Inject(fault.Rule{Kind: "eio", Op: fault.OpRead, Err: syscall.EIO})
		doJSON(t, "POST", ts.URL+"/graphs/g/mutate",
			[]byte(`{"ops":[{"op":"add_node","id":"c","label":"person"}]}`), http.StatusOK)
		awaitHealth(t, fts, "degraded")
		return fts
	}},
}

func TestLifecycleSurfacesGolden(t *testing.T) {
	for _, sc := range lifecycleScenarios {
		t.Run(sc.state, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "data")
			ts := sc.setup(t, dir)
			got := lifecycleSurfaces(t, ts, dir)
			want, err := os.ReadFile(filepath.Join("testdata", "lifecycle_"+sc.state+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal([]byte(got), want) {
				t.Fatalf("%s surfaces changed:\n--- got\n%s\n--- want\n%s", sc.state, got, want)
			}
		})
	}
}
