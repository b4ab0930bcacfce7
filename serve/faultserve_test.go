// End-to-end degraded-mode serving over real HTTP, driven by the
// fault-injection FS.
package serve

import (
	"net/http"
	"syscall"
	"testing"
	"time"

	"gedlib/persist/fault"
)

// TestDegradedServingHTTP walks the documented failure lifecycle over
// the HTTP API: a healthy durable graph hits a sticky fsync fault, the
// graph degrades (writes 503 + Retry-After, reads keep serving, health
// surfaces everywhere), the operator enable path fails while the disk
// is still broken, and once the disk heals /enable brings the graph
// back in one round trip.
func TestDegradedServingHTTP(t *testing.T) {
	ffs := fault.New(1, nil)
	_, ts := startServer(t, Config{
		DataDir:       t.TempDir(),
		FS:            ffs,
		MaxDelay:      time.Millisecond,
		ProbeInterval: time.Hour, // keep the auto-probe out of the assertions
	})
	g := ts.URL + "/graphs/g"
	addNode := func(id string) []byte {
		return []byte(`{"ops":[{"op":"add_node","id":"` + id + `","label":"person"}]}`)
	}

	doJSON(t, "POST", ts.URL+"/graphs?name=g", nil, http.StatusCreated)
	doJSON(t, "POST", g+"/mutate", addNode("a"), http.StatusOK)

	// The disk starts eating fsyncs — every sync (WAL group commits and
	// checkpoint temp files alike) now fails. Fsyncgate rule: a failed
	// fsync is never retried, so the very next group commit degrades.
	ffs.Inject(fault.Rule{Kind: "eio", Op: fault.OpSync, Err: syscall.EIO})

	doJSON(t, "POST", g+"/mutate", addNode("b"), http.StatusInternalServerError)
	checkRejection(t, g+"/mutate", addNode("c"), http.StatusServiceUnavailable, "5")

	// Health surfaces the degradation with its cause.
	body := doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK)
	if body["status"] != "degraded" {
		t.Fatalf("healthz status %v, want degraded", body["status"])
	}
	gh := body["graphs"].(map[string]any)["g"].(map[string]any)
	if gh["health"] != "degraded" || gh["error"] == nil || gh["error"] == "" {
		t.Fatalf("healthz graph entry %v, want degraded with cause", gh)
	}

	// Reads keep serving the last published view.
	doJSON(t, "GET", g+"/violations", nil, http.StatusOK)

	// Operator enable on a still-broken disk: the probe's heal
	// checkpoint can't fsync either, so the graph stays degraded.
	doJSON(t, "POST", g+"/enable", nil, http.StatusServiceUnavailable)

	// The disk heals; /enable probes recovery and re-opens writes.
	ffs.Heal()
	if body := doJSON(t, "POST", g+"/enable", nil, http.StatusOK); body["health"] != "ok" {
		t.Fatalf("enable reported health %v, want ok", body["health"])
	}
	if body := doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK); body["status"] != "ok" {
		t.Fatalf("healthz after heal: %v, want ok", body["status"])
	}
	doJSON(t, "POST", g+"/mutate", addNode("d"), http.StatusOK)

	// The degraded episode is visible in stats.
	stats := doJSON(t, "GET", g+"/stats", nil, http.StatusOK)
	if stats["health"] != "ok" {
		t.Fatalf("stats health %v, want ok", stats["health"])
	}
	if r, ok := stats["recoveries"].(float64); !ok || r < 1 {
		t.Fatalf("stats recoveries %v, want >= 1", stats["recoveries"])
	}
}
