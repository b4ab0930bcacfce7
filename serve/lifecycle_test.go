package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	allStates  = []lifeState{stLeaderOK, stLeaderDegraded, stFollowerOK, stFollowerLagging, stFenced, stClosing}
	stateNames = []string{"leader-ok", "leader-degraded", "follower-ok", "follower-lagging", "fenced", "closing"}
	allEvents  = []lifeEvent{evFault, evFence, evHeal, evTailFail, evTailOK, evPromote, evPromoteFail, evClose}
	eventNames = []string{"fault", "fence", "heal", "tail-fail", "tail-ok", "promote", "promote-fail", "close"}
)

// wantTransition is one legal (state, event) pair and the counters its
// effects move; every pair not listed must leave the state unchanged.
type wantTransition struct {
	from                        lifeState
	ev                          lifeEvent
	to                          lifeState
	degraded, recovered, fenced uint64
}

var legalTransitions = []wantTransition{
	{stLeaderOK, evFault, stLeaderDegraded, 1, 0, 0},
	{stLeaderOK, evFence, stFenced, 0, 0, 1},
	{stLeaderOK, evClose, stClosing, 0, 0, 0},
	{stLeaderDegraded, evFault, stLeaderDegraded, 0, 0, 0},
	{stLeaderDegraded, evFence, stFenced, 0, 0, 1},
	{stLeaderDegraded, evHeal, stLeaderOK, 0, 1, 0},
	{stLeaderDegraded, evClose, stClosing, 0, 0, 0},
	{stFollowerOK, evTailFail, stFollowerLagging, 1, 0, 0},
	{stFollowerOK, evPromote, stLeaderOK, 0, 0, 0},
	{stFollowerOK, evPromoteFail, stFollowerLagging, 1, 0, 0},
	{stFollowerOK, evClose, stClosing, 0, 0, 0},
	{stFollowerLagging, evTailFail, stFollowerLagging, 0, 0, 0},
	{stFollowerLagging, evTailOK, stFollowerOK, 0, 1, 0},
	{stFollowerLagging, evPromote, stLeaderOK, 0, 1, 0},
	{stFollowerLagging, evPromoteFail, stFollowerLagging, 0, 0, 0},
	{stFollowerLagging, evClose, stClosing, 0, 0, 0},
	{stFenced, evFence, stFenced, 0, 0, 0},
	{stFenced, evClose, stClosing, 0, 0, 0},
}

func metricsText(c *Catalog) string {
	var b bytes.Buffer
	c.reg.WritePrometheus(&b)
	return b.String()
}

// TestLifecycleTransitions fires every event at an entry in every state
// and checks the next state, the cause, since, and the effects: the
// transition counters, the probe loop stopping on close, and the
// follower series leaving on promotion. Illegal pairs change nothing —
// fenced stays fenced under heal, and nothing leaves closing.
func TestLifecycleTransitions(t *testing.T) {
	legal := map[[2]int]wantTransition{}
	for _, w := range legalTransitions {
		legal[[2]int{int(w.from), int(w.ev)}] = w
	}
	for _, s := range allStates {
		for _, ev := range allEvents {
			name := stateNames[s] + "+" + eventNames[ev]
			c, err := NewCatalog(Config{ProbeInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			ent := c.newEntry("g", stFollowerOK) // registers the follower series
			prior := errors.New("prior cause")
			before := &lifecycle{state: s, cause: prior, since: time.Now().Add(-time.Hour)}
			ent.life.Store(before)
			cause := errors.New("event cause")
			ent.on(ev, cause)
			got := ent.life.Load()

			w, ok := legal[[2]int{int(s), int(ev)}]
			if !ok {
				if got != before {
					t.Errorf("%s: illegal pair changed the state to %+v", name, *got)
				}
				w = wantTransition{from: s, ev: ev, to: s}
			} else {
				if got.state != w.to || got.cause != cause {
					t.Errorf("%s: got %s (cause %v), want %s (cause %v)", name, stateNames[got.state], got.cause, stateNames[w.to], cause)
				}
				if moved := !got.since.Equal(before.since); moved != (w.to != s) {
					t.Errorf("%s: since moved=%v, want %v", name, moved, w.to != s)
				}
			}
			if d, r, f := ent.mDegraded.Value(), ent.mRecoveries.Value(), ent.mFenced.Value(); d != w.degraded || r != w.recovered || f != w.fenced {
				t.Errorf("%s: degraded/recovered/fenced counted %d/%d/%d, want %d/%d/%d",
					name, d, r, f, w.degraded, w.recovered, w.fenced)
			}
			closed := ok && ev == evClose
			select {
			case <-ent.probeStop:
				if !closed {
					t.Errorf("%s: probe loop stopped without a close", name)
				}
			default:
				if closed {
					t.Errorf("%s: closing left the probe loop running", name)
				}
				ent.on(evClose, nil) // stop any probe loop the event started
			}
			series := `ged_follower_lag_seconds{graph="g"}`
			if promoted := ok && ev == evPromote; promoted == strings.Contains(metricsText(c), series) {
				t.Errorf("%s: follower series present=%v after the event", name, !promoted)
			}
			c.Close()
		}
	}
}

// TestLifecycleConcurrentEvents races faults, heals and closes on one
// entry: every transition that lands runs its effects exactly once, so
// the degraded and recovered counters differ by exactly the final
// degraded state, and the probe loop's stop channel closes once.
func TestLifecycleConcurrentEvents(t *testing.T) {
	c, err := NewCatalog(Config{ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ent := c.newEntry("g", stLeaderOK)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if (i+j)%2 == 0 {
					ent.on(evFault, errors.New("fault"))
				} else {
					ent.on(evHeal, nil)
				}
			}
		}(i)
	}
	wg.Wait()
	open := uint64(0)
	if ent.life.Load().state == stLeaderDegraded {
		open = 1
	}
	if d, r := ent.mDegraded.Value(), ent.mRecoveries.Value(); d != r+open {
		t.Fatalf("degraded %d, recovered %d, final state %s", d, r, stateNames[ent.life.Load().state])
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ent.on(evClose, nil) // a second close of probeStop would panic
		}()
	}
	wg.Wait()
	if ent.life.Load().state != stClosing {
		t.Fatalf("state %s after close", stateNames[ent.life.Load().state])
	}
}

// stateSurface is what every surface must show for one state.
type stateSurface struct {
	health, role           string
	healthGauge, roleGauge int
	status                 string // /healthz rollup with this graph alone
	writeCode              int    // mutate and rules; 200 when writable
	retryAfter             string
	probe                  bool  // a heal probe runs
	probeErr               error // Probe's answer otherwise
}

var stateSurfaces = map[lifeState]stateSurface{
	stLeaderOK:        {"ok", "leader", 0, 0, "ok", 200, "", false, nil},
	stLeaderDegraded:  {"degraded", "leader", 1, 0, "degraded", 503, "5", true, nil},
	stFollowerOK:      {"readonly", "follower", 2, 1, "ok", 403, "30", false, ErrReadOnly},
	stFollowerLagging: {"degraded", "follower", 1, 1, "degraded", 403, "30", false, ErrReadOnly},
	stFenced:          {"fenced", "fenced", 3, 2, "fenced", 503, "5", false, nil},
	stClosing:         {"closed", "closed", 4, 3, "ok", 410, "", false, ErrClosed},
}

func serveRecorded(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// TestLifecycleSurfaces puts one graph in each state and reads every
// surface derived from it: Health, EntryStats, /healthz, both gauges,
// the write rejection's status and Retry-After, and Probe.
func TestLifecycleSurfaces(t *testing.T) {
	for _, s := range allStates {
		w := stateSurfaces[s]
		t.Run(stateNames[s], func(t *testing.T) {
			srv, err := NewServer(Config{MaxDelay: time.Millisecond, ProbeInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			h := srv.Handler()
			if rec := serveRecorded(h, "POST", "/graphs?name=g", ""); rec.Code != http.StatusCreated {
				t.Fatalf("create: %d", rec.Code)
			}
			ent, _ := srv.Catalog().Get("g")
			cause := errors.New("cause")
			ent.life.Store(&lifecycle{state: s, cause: cause, since: time.Now()})
			// Let the server's own Close run from a closable state.
			defer ent.life.Store(&lifecycle{state: stLeaderOK})

			if h, c := ent.Health(); h != w.health || c != cause {
				t.Errorf("Health() = %q, %v; want %q", h, c, w.health)
			}
			if st := ent.Stats(); st.Health != w.health || st.Role != w.role || st.HealthError != "cause" {
				t.Errorf("Stats health %q role %q error %q, want %q %q", st.Health, st.Role, st.HealthError, w.health, w.role)
			}
			hz := serveRecorded(h, "GET", "/healthz", "").Body.String()
			if want := fmt.Sprintf(`{"graphs":{"g":{"error":"cause","health":%q,"role":%q}},"role":"leader","status":%q}`,
				w.health, w.role, w.status); strings.TrimSpace(hz) != want {
				t.Errorf("/healthz %s, want %s", hz, want)
			}
			m := serveRecorded(h, "GET", "/metricsz", "").Body.String()
			for _, line := range []string{
				fmt.Sprintf("ged_serve_graph_health{graph=\"g\"} %d\n", w.healthGauge),
				fmt.Sprintf("ged_serve_role{graph=\"g\"} %d\n", w.roleGauge),
			} {
				if !strings.Contains(m, line) {
					t.Errorf("/metricsz lacks %q", line)
				}
			}
			for _, wr := range [][2]string{
				{"/graphs/g/mutate", `{"ops":[{"op":"add_node","id":"n","label":"x"}]}`},
				{"/graphs/g/rules", `ged r on (x:x) { then x.ok = 1 }`},
			} {
				rec := serveRecorded(h, "POST", wr[0], wr[1])
				if rec.Code != w.writeCode || rec.Header().Get("Retry-After") != w.retryAfter {
					t.Errorf("POST %s: %d Retry-After %q, want %d %q", wr[0], rec.Code, rec.Header().Get("Retry-After"), w.writeCode, w.retryAfter)
				}
			}
			probes := ent.mProbes.Value()
			err = ent.Probe(context.Background())
			if ran := ent.mProbes.Value() > probes; ran != w.probe {
				t.Errorf("probe ran=%v, want %v", ran, w.probe)
			}
			if !w.probe && err != w.probeErr {
				t.Errorf("Probe() = %v, want %v", err, w.probeErr)
			}
			if w.probe && (err != nil || ent.life.Load().state != stLeaderOK) {
				t.Errorf("probe of an in-memory degraded entry: %v, state %s; want healed", err, stateNames[ent.life.Load().state])
			}
		})
	}
}

// TestPromoteDropsFollowerSeries: a promoted leader stops exporting the
// follower-only series, and the epoch gauge reads the new WAL handle.
func TestPromoteDropsFollowerSeries(t *testing.T) {
	dir := t.TempDir()
	_, lts := startServer(t, Config{MaxDelay: time.Millisecond, DataDir: dir})
	doJSON(t, "POST", lts.URL+"/graphs?name=g", nil, http.StatusCreated)
	fsrv, fts := startServer(t, Config{DataDir: dir, FollowPoll: 2 * time.Millisecond, MaxDelay: time.Millisecond})
	if err := fsrv.Follow(context.Background()); err != nil {
		t.Fatal(err)
	}
	series := []string{`ged_follower_lag_seconds{graph="g"}`, `ged_follower_records_total{graph="g"}`}
	body := fetchText(t, fts.URL+"/metricsz")
	for _, s := range series {
		if !strings.Contains(body, s) {
			t.Fatalf("follower /metricsz lacks %s", s)
		}
	}
	doJSON(t, "POST", fts.URL+"/promote", nil, http.StatusOK)
	body = fetchText(t, fts.URL+"/metricsz")
	for _, s := range series {
		if strings.Contains(body, s) {
			t.Errorf("promoted leader still exports %s", s)
		}
	}
	for _, s := range []string{`ged_serve_role{graph="g"} 0`, `ged_leader_epoch{graph="g"} 1`} {
		if !strings.Contains(body, s) {
			t.Errorf("promoted leader /metricsz lacks %s", s)
		}
	}
}

// TestFollowerDropsDeletedGraph: a graph the leader deletes leaves the
// follower's catalog, /healthz and /metricsz.
func TestFollowerDropsDeletedGraph(t *testing.T) {
	dir := t.TempDir()
	_, lts := startServer(t, Config{MaxDelay: time.Millisecond, DataDir: dir})
	doJSON(t, "POST", lts.URL+"/graphs?name=g", nil, http.StatusCreated)
	doJSON(t, "POST", lts.URL+"/graphs/g/mutate",
		[]byte(`{"ops":[{"op":"add_node","id":"a","label":"x"}]}`), http.StatusOK)
	fsrv, fts := startServer(t, Config{DataDir: dir, FollowPoll: 2 * time.Millisecond})
	if err := fsrv.Follow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := fsrv.Catalog().Get("g"); err != nil {
		t.Fatal(err)
	}
	doJSON(t, "DELETE", lts.URL+"/graphs/g", nil, http.StatusOK)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := fsrv.Catalog().Get("g"); errors.Is(err, ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower still holds g 5s after the leader deleted it")
		}
		time.Sleep(2 * time.Millisecond)
	}
	hz := doJSON(t, "GET", fts.URL+"/healthz", nil, http.StatusOK)
	if g := hz["graphs"].(map[string]any); len(g) != 0 {
		t.Errorf("/healthz still reports %v", g)
	}
	if body := fetchText(t, fts.URL+"/metricsz"); strings.Contains(body, `graph="g"`) {
		t.Errorf("/metricsz still reports graph g:\n%s", body)
	}
}
