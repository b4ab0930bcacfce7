package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"gedlib"
)

func fetchText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// loadAndChurn creates graph g from the testdata KB, registers the
// testdata rules, and pushes one mutation through the flush pipeline.
func loadAndChurn(t *testing.T, ts string) {
	t.Helper()
	kb, err := os.ReadFile("../testdata/kb.json")
	if err != nil {
		t.Fatal(err)
	}
	rules, err := os.ReadFile("../testdata/rules.ged")
	if err != nil {
		t.Fatal(err)
	}
	doJSON(t, "POST", ts+"/graphs?name=g", kb, http.StatusCreated)
	doJSON(t, "POST", ts+"/graphs/g/rules", rules, http.StatusOK)
	doJSON(t, "POST", ts+"/graphs/g/mutate",
		[]byte(`{"ops":[{"op":"set_attr","id":"gibson","attr":"seen","value":1}]}`), http.StatusOK)
	doJSON(t, "GET", ts+"/graphs/g/violations", nil, http.StatusOK)
}

// TestMetricszContract asserts the exposition covers every layer the
// observer is wired through: flush pipeline stages, WAL durability,
// engine timings, matcher profiles, the chase, admission, and per-graph
// health.
func TestMetricszContract(t *testing.T) {
	_, ts := startServer(t, Config{MaxDelay: time.Millisecond, DataDir: t.TempDir()})
	loadAndChurn(t, ts.URL)
	doJSON(t, "POST", ts.URL+"/graphs/g/chase", nil, http.StatusOK)

	body := fetchText(t, ts.URL+"/metricsz")
	for _, stage := range []string{stageQueueWait, stageWALAppend, stageFsync, stageApply, stagePublish} {
		want := `ged_serve_flush_stage_seconds_count{graph="g",stage="` + stage + `"}`
		if !strings.Contains(body, want) {
			t.Errorf("/metricsz missing flush stage series %q", want)
		}
	}
	for _, name := range []string{
		"ged_serve_flushes_total{graph=\"g\"}",
		"ged_serve_reads_total{graph=\"g\"}",
		"ged_serve_graph_health{graph=\"g\"} 0",
		"ged_serve_requests_admitted_total",
		"ged_serve_inflight_requests",
		"ged_wal_records_total{graph=\"g\"}",
		"ged_wal_bytes_total{graph=\"g\"}",
		"ged_wal_fsync_seconds_count{graph=\"g\"}",
		"ged_checkpoints_total{graph=\"g\"}",
		"ged_engine_apply_seconds_count",
		"ged_engine_snapshot_cache_total",
		"ged_match_candidates_total",
		"ged_match_pruned_total",
		"ged_match_plan_info",
		"ged_chase_rounds_total",
		"ged_chase_matches_total",
		"ged_chase_steps_total",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metricsz missing %q", name)
		}
	}

	// Deleting the graph retires every series labeled with it.
	doJSON(t, "DELETE", ts.URL+"/graphs/g", nil, http.StatusOK)
	body = fetchText(t, ts.URL+"/metricsz")
	if strings.Contains(body, `graph="g"`) {
		t.Errorf("per-graph series survived delete:\n%s", body)
	}
}

// TestTracezFlushSpans asserts flushes leave spans in the ring with the
// pipeline stages attached, and that the query filters narrow them.
func TestTracezFlushSpans(t *testing.T) {
	_, ts := startServer(t, Config{MaxDelay: time.Millisecond, DataDir: t.TempDir()})
	loadAndChurn(t, ts.URL)

	var out struct {
		Count int                `json:"count"`
		Spans []*gedlib.SpanData `json:"spans"`
	}
	resp := fetchText(t, ts.URL+"/tracez?graph=g&op=flush")
	if err := json.Unmarshal([]byte(resp), &out); err != nil {
		t.Fatal(err)
	}
	if out.Count == 0 {
		t.Fatal("no flush spans in /tracez after a mutate")
	}
	sp := out.Spans[0]
	if sp.Graph != "g" || sp.Op != "flush" {
		t.Fatalf("filter leaked: got span %+v", sp)
	}
	stages := map[string]bool{}
	for _, st := range sp.Stages {
		stages[st.Name] = true
	}
	for _, want := range []string{stageQueueWait, stageWALAppend, stageFsync, stageApply, stagePublish} {
		if !stages[want] {
			t.Errorf("flush span missing stage %q: %v", want, sp.Stages)
		}
	}

	// An op filter that matches nothing yields an empty (non-null) list.
	resp = fetchText(t, ts.URL+"/tracez?op=nosuch")
	if err := json.Unmarshal([]byte(resp), &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 0 || out.Spans == nil {
		t.Fatalf("want empty span list, got %s", resp)
	}
	// A min filter beyond any real duration drops everything.
	resp = fetchText(t, ts.URL+"/tracez?min=1h")
	if err := json.Unmarshal([]byte(resp), &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 0 {
		t.Fatalf("min=1h kept %d spans", out.Count)
	}
}

// TestSlowOpLog asserts the slow-op hook fires for flushes beyond the
// threshold and carries the span.
func TestSlowOpLog(t *testing.T) {
	var mu struct {
		ch chan *gedlib.SpanData
	}
	mu.ch = make(chan *gedlib.SpanData, 16)
	s, err := NewServer(Config{
		MaxDelay: time.Millisecond,
		SlowOp:   time.Nanosecond, // everything is slow
		OnSlowOp: func(sd *gedlib.SpanData) {
			select {
			case mu.ch <- sd:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ent, err := s.Catalog().Create("g", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ent.Mutate(t.Context(), []Op{{Op: "add_node", ID: "a", Label: "thing"}}); err != nil {
		t.Fatal(err)
	}
	select {
	case sd := <-mu.ch:
		if sd.Op != "flush" || sd.Graph != "g" {
			t.Fatalf("slow-op span = %+v", sd)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slow-op hook never fired")
	}
}

// TestVersionz asserts the build-identity endpoint answers with the
// embedded build info.
func TestVersionz(t *testing.T) {
	_, ts := startServer(t, Config{})
	out := doJSON(t, "GET", ts.URL+"/versionz", nil, http.StatusOK)
	if mod, _ := out["module"].(string); mod == "" {
		t.Fatalf("versionz missing module: %v", out)
	}
	if goVer, _ := out["go"].(string); !strings.HasPrefix(goVer, "go") {
		t.Fatalf("versionz go = %v", out["go"])
	}
}
