package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func doJSON(t *testing.T, method, url string, body []byte, wantCode int) map[string]any {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s: status %d, want %d; body: %s", method, url, resp.StatusCode, wantCode, data)
	}
	out := map[string]any{}
	if len(data) > 0 {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, data, err)
		}
	}
	return out
}

// TestHTTPEndToEnd drives the documented lifecycle over real HTTP:
// load testdata/kb.json, register testdata/rules.ged, read violations,
// repair via mutate, observe the maintained set shrink, chase, stats.
func TestHTTPEndToEnd(t *testing.T) {
	_, ts := startServer(t, Config{MaxDelay: time.Millisecond})
	kb, err := os.ReadFile("../testdata/kb.json")
	if err != nil {
		t.Fatal(err)
	}
	rules, err := os.ReadFile("../testdata/rules.ged")
	if err != nil {
		t.Fatal(err)
	}

	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK)
	doJSON(t, "POST", ts.URL+"/graphs?name=kb", kb, http.StatusCreated)
	// Duplicate create conflicts.
	doJSON(t, "POST", ts.URL+"/graphs?name=kb", kb, http.StatusConflict)
	// Unknown graph 404s.
	doJSON(t, "GET", ts.URL+"/graphs/nope/violations", nil, http.StatusNotFound)

	res := doJSON(t, "POST", ts.URL+"/graphs/kb/rules", rules, http.StatusOK)
	if res["rules"].(float64) != 2 {
		t.Fatalf("registered %v rules, want 2", res["rules"])
	}
	seeded := res["violations"].(float64)
	if seeded == 0 {
		t.Fatal("kb.json plants violations but the seeding validation found none")
	}

	res = doJSON(t, "GET", ts.URL+"/graphs/kb/violations", nil, http.StatusOK)
	if res["total"].(float64) != seeded {
		t.Fatalf("violations total %v, want %v", res["total"], seeded)
	}

	// gibson (a psychologist) created a video game: repair the type and
	// the phi1 violation must leave the maintained set.
	mut, _ := json.Marshal(map[string]any{"ops": []Op{
		{Op: "set_attr", ID: "gibson", Attr: "type", Value: "programmer"},
	}})
	res = doJSON(t, "POST", ts.URL+"/graphs/kb/mutate", mut, http.StatusOK)
	if res["applied"].(float64) != 1 {
		t.Fatalf("mutate applied %v, want 1", res["applied"])
	}
	res = doJSON(t, "GET", ts.URL+"/graphs/kb/violations", nil, http.StatusOK)
	if got := res["total"].(float64); got != seeded-1 {
		t.Fatalf("after repair: %v violations, want %v", got, seeded-1)
	}

	// Targeted validation of the repaired neighborhood is clean; the
	// capital mismatch still shows when probing finland.
	body, _ := json.Marshal(map[string]any{"nodes": []string{"gibson"}})
	res = doJSON(t, "POST", ts.URL+"/graphs/kb/validate", body, http.StatusOK)
	if res["count"].(float64) != 0 {
		t.Fatalf("repaired neighborhood still dirty: %v", res["violations"])
	}
	body, _ = json.Marshal(map[string]any{"nodes": []string{"finland"}})
	res = doJSON(t, "POST", ts.URL+"/graphs/kb/validate", body, http.StatusOK)
	if res["count"].(float64) == 0 {
		t.Fatal("capital-name violation not found by targeted validation")
	}

	// Whole-graph satisfies probe.
	res = doJSON(t, "POST", ts.URL+"/graphs/kb/validate", nil, http.StatusOK)
	if res["satisfies"].(bool) {
		t.Fatal("graph reported clean while phi2 is violated")
	}

	// Chase: the capital-name clash makes the chase equate the two
	// names; it stays consistent (no forbidding rule matches).
	res = doJSON(t, "POST", ts.URL+"/graphs/kb/chase", nil, http.StatusOK)
	if _, ok := res["consistent"]; !ok {
		t.Fatalf("chase response missing consistent: %v", res)
	}

	// Stats and statsz.
	res = doJSON(t, "GET", ts.URL+"/graphs/kb/stats", nil, http.StatusOK)
	if res["name"] != "kb" || res["flushes"].(float64) < 1 {
		t.Fatalf("entry stats incomplete: %v", res)
	}
	res = doJSON(t, "GET", ts.URL+"/statsz", nil, http.StatusOK)
	if res["graphs"].(float64) != 1 {
		t.Fatalf("statsz graphs %v, want 1", res["graphs"])
	}

	// Delete, then the entry is gone.
	doJSON(t, "DELETE", ts.URL+"/graphs/kb", nil, http.StatusOK)
	doJSON(t, "GET", ts.URL+"/graphs/kb/violations", nil, http.StatusNotFound)
}

// TestHTTPBadInputs: malformed bodies and unknown ops surface as 400s
// with JSON errors, not 500s.
func TestHTTPBadInputs(t *testing.T) {
	_, ts := startServer(t, Config{MaxDelay: time.Millisecond})
	doJSON(t, "POST", ts.URL+"/graphs?name=g", nil, http.StatusCreated)
	doJSON(t, "POST", ts.URL+"/graphs?name=", nil, http.StatusBadRequest)
	// A name with '/' would be unroutable by the {name} wildcard.
	doJSON(t, "POST", ts.URL+"/graphs?name=a%2Fb", nil, http.StatusBadRequest)
	doJSON(t, "POST", ts.URL+"/graphs?name=bad", []byte("{not json"), http.StatusBadRequest)
	doJSON(t, "POST", ts.URL+"/graphs/g/rules", []byte("ged broken {{{"), http.StatusBadRequest)
	doJSON(t, "POST", ts.URL+"/graphs/g/mutate", []byte("{}"), http.StatusBadRequest)
	doJSON(t, "POST", ts.URL+"/graphs/g/mutate", []byte("nope"), http.StatusBadRequest)
	body, _ := json.Marshal(map[string]any{"nodes": []string{"ghost"}})
	doJSON(t, "POST", ts.URL+"/graphs/g/validate", body, http.StatusBadRequest)
}

// TestReadBody: a body of declared length is read into one buffer of
// that length, one of unknown length (or of a declared length past
// presizeMax) is read whole, and either fails with 413 past the limit.
func TestReadBody(t *testing.T) {
	const limit = 64 << 10
	for _, c := range []struct {
		name    string
		n       int
		chunked bool
		limit   int64
		ok      bool
	}{
		{"empty", 0, false, limit, true},
		{"declared", 40 << 10, false, limit, true},
		{"declared at the limit", limit, false, limit, true},
		{"declared past the limit", limit + 1, false, limit, false},
		{"chunked", 40 << 10, true, limit, true},
		{"chunked past the limit", limit + 1, true, limit, false},
		{"declared past presizeMax", presizeMax + 1, false, 2 * presizeMax, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := bytes.Repeat([]byte("ab"), c.n/2+1)[:c.n]
			r := httptest.NewRequest("POST", "/", bytes.NewReader(want))
			if c.chunked {
				r.ContentLength = -1
			}
			w := httptest.NewRecorder()
			got, ok := readBody(w, r, c.limit)
			if ok != c.ok {
				t.Fatalf("ok = %v, want %v (status %d)", ok, c.ok, w.Code)
			}
			if !ok {
				if w.Code != http.StatusRequestEntityTooLarge {
					t.Fatalf("status %d, want 413", w.Code)
				}
				return
			}
			if !bytes.Equal(got, want) || got == nil {
				t.Fatalf("read %d bytes, want the %d sent", len(got), len(want))
			}
		})
	}
	body := bytes.Repeat([]byte("x"), 40<<10)
	r := httptest.NewRequest("POST", "/", nil)
	r.ContentLength = int64(len(body))
	w := httptest.NewRecorder()
	allocs := testing.AllocsPerRun(20, func() {
		r.Body = io.NopCloser(bytes.NewReader(body))
		readBody(w, r, limit)
	})
	// The body and its closer, the limiter and the buffer; a read that
	// grew its buffer would add one allocation per doubling.
	if allocs > 4 {
		t.Fatalf("reading a 40 KB body of declared length allocates %.0f times, want 4", allocs)
	}
}

// TestHTTPAdmissionControl: past MaxInFlight concurrent requests the
// server sheds load with 503 instead of queueing, and /healthz and
// /statsz keep answering.
func TestHTTPAdmissionControl(t *testing.T) {
	s, ts := startServer(t, Config{MaxInFlight: 2, MaxDelay: time.Millisecond})
	doJSON(t, "POST", ts.URL+"/graphs?name=g", nil, http.StatusCreated)

	// Saturate the two slots with requests parked in a slow handler: a
	// mutate whose flush we stall by hammering... simpler: park them in
	// admission by occupying the semaphore directly.
	s.adm.sem <- struct{}{}
	s.adm.sem <- struct{}{}
	resp, err := http.Get(ts.URL + "/graphs/g/violations")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated request got %d, want 503", resp.StatusCode)
	}
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK)
	res := doJSON(t, "GET", ts.URL+"/statsz", nil, http.StatusOK)
	if res["rejected_requests"].(float64) < 1 {
		t.Fatalf("statsz did not count the shed request: %v", res)
	}
	<-s.adm.sem
	<-s.adm.sem
	doJSON(t, "GET", ts.URL+"/graphs/g/violations", nil, http.StatusOK)
}

// TestHTTPQueueFullBackpressure: a saturated write queue answers 429.
func TestHTTPQueueFullBackpressure(t *testing.T) {
	s, ts := startServer(t, Config{MaxQueueOps: 1, MaxDelay: time.Hour, FlushOps: 1 << 20})
	doJSON(t, "POST", ts.URL+"/graphs?name=g", nil, http.StatusCreated)
	ent, err := s.Catalog().Get("g")
	if err != nil {
		t.Fatal(err)
	}
	// Park one op in the hour-long flush window without waiting on it,
	// filling the one-op queue.
	parked, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ent.Mutate(parked, []Op{{Op: "add_node", ID: "a", Label: "thing"}})
	for i := 0; i < 1000 && ent.b.Load().queueDepth() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if ent.b.Load().queueDepth() != 1 {
		t.Fatalf("queue depth %d, want 1", ent.b.Load().queueDepth())
	}
	add, _ := json.Marshal(map[string]any{"ops": []Op{
		{Op: "add_node", ID: "b", Label: "thing"},
	}})
	resp, err := http.Post(ts.URL+"/graphs/g/mutate", "application/json", strings.NewReader(string(add)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue answered %d, want 429", resp.StatusCode)
	}
}
