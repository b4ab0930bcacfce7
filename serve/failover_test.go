package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"testing"
	"time"
)

// TestPromoteFailoverAdoptsAckedWrites is the in-process failover
// lifecycle: a leader acks writes, a follower is promoted, and (a) no
// acked write is lost, (b) the promoted catalog accepts writes at epoch
// 1, (c) the deposed leader's next write is fenced before being acked,
// (d) the deposed leader demotes and converges on the new leader.
func TestPromoteFailoverAdoptsAckedWrites(t *testing.T) {
	dir := t.TempDir()
	leader, lent := newTestEntry(t, Config{MaxDelay: time.Millisecond, DataDir: dir})
	ctx := context.Background()

	// An acked (durable) repair on the old leader: the seeded violation
	// disappears, and promotion must carry that forward.
	res, err := lent.Mutate(ctx, []Op{{Op: "set_attr", ID: "dev", Attr: "type", Value: "programmer"}})
	if err != nil {
		t.Fatal(err)
	}

	fol, err := NewCatalog(Config{DataDir: dir, FollowPoll: 2 * time.Millisecond, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fol.Close)
	if err := fol.Follow(ctx); err != nil {
		t.Fatal(err)
	}

	pres, err := fol.Promote(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(pres.Promoted) != 1 || pres.Promoted[0] != "g" {
		t.Fatalf("promoted %v, want [g]", pres.Promoted)
	}
	if pres.Epoch != 1 {
		t.Fatalf("promoted to epoch %d, want 1", pres.Epoch)
	}
	if pres.RTONanos <= 0 {
		t.Fatalf("rto %d, want > 0", pres.RTONanos)
	}
	if fol.IsFollower() || fol.Role() != "leader" {
		t.Fatalf("promoted catalog still reports follower (role %q)", fol.Role())
	}

	fent, err := fol.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	v := fent.CurrentView()
	if v.Version < res.Version {
		t.Fatalf("promoted leader at version %d, acked write at %d — acked write lost", v.Version, res.Version)
	}
	if len(v.Violations) != 0 {
		t.Fatalf("promoted leader sees %d violations, want 0 (the acked repair)", len(v.Violations))
	}
	if _, err := fent.Mutate(ctx, []Op{{Op: "add_node", ID: "post-promote", Label: "person"}}); err != nil {
		t.Fatalf("promoted leader rejects writes: %v", err)
	}
	st := fent.Stats()
	if st.Role != "leader" || st.LeaderEpoch != 1 || st.PromotionNanos <= 0 {
		t.Fatalf("promoted entry stats: role %q epoch %d promotion_ns %d", st.Role, st.LeaderEpoch, st.PromotionNanos)
	}

	// The deposed leader's next write fails the epoch fence before being
	// acked, flips the graph to fenced, and reads keep serving.
	if _, err := lent.Mutate(ctx, []Op{{Op: "set_attr", ID: "dev", Attr: "name", Value: "lost"}}); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale leader Mutate returned %v, want ErrFenced", err)
	}
	if h, cause := lent.Health(); h != "fenced" || cause == nil {
		t.Fatalf("stale leader health %q (cause %v), want fenced", h, cause)
	}
	if lent.CurrentView() == nil {
		t.Fatal("fenced leader stopped serving reads")
	}
	// Fast-fail path: a second write is rejected before the batcher.
	if _, err := lent.Mutate(ctx, []Op{{Op: "set_attr", ID: "dev", Attr: "name", Value: "x"}}); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced Mutate returned %v, want ErrFenced", err)
	}
	if _, err := lent.RegisterRules(ctx, "ged r on (a:person) { then a.ok = 1 }"); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced RegisterRules returned %v, want ErrFenced", err)
	}
	if st := lent.Stats(); st.Role != "fenced" || st.FencedAppends == 0 {
		t.Fatalf("fenced entry stats: role %q fenced_appends %d", st.Role, st.FencedAppends)
	}

	// The deposed leader reboots as a follower of the new epoch and
	// converges on its writes.
	if err := leader.Demote(ctx); err != nil {
		t.Fatal(err)
	}
	if !leader.IsFollower() {
		t.Fatal("demoted catalog does not report follower")
	}
	res2, err := fent.Mutate(ctx, []Op{{Op: "set_attr", ID: "game", Attr: "name", Value: "GB2"}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		dent, err := leader.Get("g")
		if err == nil {
			if dv := dent.CurrentView(); dv != nil && dv.Version >= res2.Version {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("demoted follower never converged on the new leader's write at version %d", res2.Version)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStaleLeaderRebootFenced: a leader crashes, a follower is promoted,
// and the old leader reboots asserting the epoch it last held
// (Config.AssumeEpoch). Its graphs must come up fenced at startup —
// read-only from the first request, not from the first failed write.
func TestStaleLeaderRebootFenced(t *testing.T) {
	dir := t.TempDir()
	newTestEntry(t, Config{MaxDelay: time.Millisecond, DataDir: dir})
	ctx := context.Background()

	fol, err := NewCatalog(Config{DataDir: dir, FollowPoll: 2 * time.Millisecond, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fol.Close)
	if err := fol.Follow(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := fol.Promote(ctx); err != nil {
		t.Fatal(err)
	}

	zero := uint64(0)
	reboot, err := NewCatalog(Config{
		DataDir: dir, MaxDelay: time.Millisecond,
		AssumeEpoch: &zero, ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reboot.Close)
	if _, err := reboot.Restore(ctx); err != nil {
		t.Fatal(err)
	}
	rent, err := reboot.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if h, cause := rent.Health(); h != "fenced" || cause == nil {
		t.Fatalf("rebooted stale leader health %q (cause %v), want fenced at startup", h, cause)
	}
	if _, err := rent.Mutate(ctx, []Op{{Op: "set_attr", ID: "dev", Attr: "name", Value: "x"}}); !errors.Is(err, ErrFenced) {
		t.Fatalf("rebooted stale leader Mutate returned %v, want ErrFenced", err)
	}
	if v := rent.CurrentView(); v == nil || len(v.Violations) != 1 {
		t.Fatalf("rebooted stale leader must still serve its recovered view (got %+v)", v)
	}
	// A probe must not resurrect it.
	if err := rent.Probe(ctx); err != nil {
		t.Fatalf("probe of a fenced entry: %v (want nil no-op)", err)
	}
	if h, _ := rent.Health(); h != "fenced" {
		t.Fatalf("probe cleared fenced state (health %q)", h)
	}
}

// postRaw posts body and returns the response (callers check status and
// headers — doJSON hides both on error paths).
func postRaw(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// checkRejection asserts a write rejection's status code and Retry-After
// header — the wire contract of the role/health distinction.
func checkRejection(t *testing.T, url string, body []byte, wantCode int, wantRetry string) {
	t.Helper()
	resp := postRaw(t, url, body)
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != wantRetry {
		t.Fatalf("POST %s: Retry-After %q, want %q", url, ra, wantRetry)
	}
}

// TestWriteRejectionStatuses pins the HTTP contract of the three write
// rejections: follower 403 + Retry-After 30 (wrong role — redirect to
// the live leader), degraded 503 + Retry-After 5 (right door, may heal
// shortly), fenced 503 + Retry-After 5 (deposed leader, sticky).
func TestWriteRejectionStatuses(t *testing.T) {
	dir := t.TempDir()
	ls, lts := startServer(t, Config{MaxDelay: time.Millisecond, DataDir: dir, ProbeInterval: time.Hour})
	doJSON(t, "POST", lts.URL+"/graphs?name=g", nil, http.StatusCreated)

	fsrv, fts := startServer(t, Config{DataDir: dir, FollowPoll: 2 * time.Millisecond})
	if err := fsrv.Follow(context.Background()); err != nil {
		t.Fatal(err)
	}

	mut := []byte(`{"ops":[{"op":"add_node","id":"n1","label":"x"}]}`)
	checkRejection(t, fts.URL+"/graphs/g/mutate", mut, http.StatusForbidden, "30")

	ent, err := ls.Catalog().Get("g")
	if err != nil {
		t.Fatal(err)
	}
	ent.on(evFault, errors.New("injected disk failure"))
	checkRejection(t, lts.URL+"/graphs/g/mutate", mut, http.StatusServiceUnavailable, "5")
	ent.on(evHeal, nil)

	ent.on(evFence, errors.New("injected fence"))
	checkRejection(t, lts.URL+"/graphs/g/mutate", mut, http.StatusServiceUnavailable, "5")
	// Sticky: the operator re-enable path must NOT resurrect a fenced
	// graph the way it resurrects a degraded one.
	doJSON(t, "POST", lts.URL+"/graphs/g/enable", nil, http.StatusOK)
	checkRejection(t, lts.URL+"/graphs/g/mutate", mut, http.StatusServiceUnavailable, "5")

	// /healthz rolls the fenced graph up into the overall status.
	hz := doJSON(t, "GET", lts.URL+"/healthz", nil, http.StatusOK)
	if hz["status"] != "fenced" {
		t.Fatalf("/healthz status %v, want fenced", hz["status"])
	}
}

// TestPromoteDemoteHTTP drives the failover endpoints over real HTTP:
// /promote on a never-follower 409s, /promote on a follower returns the
// promoted graphs + epoch + RTO and flips /statsz role, the deposed
// leader's writes 503, and /demote reboots it as a follower that 403s.
func TestPromoteDemoteHTTP(t *testing.T) {
	dir := t.TempDir()
	_, lts := startServer(t, Config{MaxDelay: time.Millisecond, DataDir: dir})
	doJSON(t, "POST", lts.URL+"/graphs?name=g", nil, http.StatusCreated)
	mut := []byte(`{"ops":[{"op":"add_node","id":"n1","label":"x"}]}`)
	doJSON(t, "POST", lts.URL+"/graphs/g/mutate", mut, http.StatusOK)

	fsrv, fts := startServer(t, Config{DataDir: dir, FollowPoll: 2 * time.Millisecond, MaxDelay: time.Millisecond})
	if err := fsrv.Follow(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A leader that was never a follower has nothing to promote.
	doJSON(t, "POST", lts.URL+"/promote", nil, http.StatusConflict)

	res := doJSON(t, "POST", fts.URL+"/promote", nil, http.StatusOK)
	promoted, _ := res["promoted"].([]any)
	if len(promoted) != 1 || promoted[0] != "g" {
		t.Fatalf("/promote returned %v, want promoted [g]", res)
	}
	if res["epoch"] != float64(1) {
		t.Fatalf("/promote epoch %v, want 1", res["epoch"])
	}
	if rto, _ := res["rto_ns"].(float64); rto <= 0 {
		t.Fatalf("/promote rto_ns %v, want > 0", res["rto_ns"])
	}
	doJSON(t, "POST", fts.URL+"/graphs/g/mutate",
		[]byte(`{"ops":[{"op":"add_node","id":"n2","label":"x"}]}`), http.StatusOK)
	if stats := doJSON(t, "GET", fts.URL+"/statsz", nil, http.StatusOK); stats["role"] != "leader" {
		t.Fatalf("/statsz role %v after promotion, want leader", stats["role"])
	}

	// The deposed leader: first write fences (503), then /demote reboots
	// it as a follower whose writes 403. (A fresh node id so the op
	// survives in-memory application and actually reaches the WAL —
	// an op rejected before the append never consults the fence.)
	stale := []byte(`{"ops":[{"op":"add_node","id":"n3","label":"x"}]}`)
	checkRejection(t, lts.URL+"/graphs/g/mutate", stale, http.StatusServiceUnavailable, "5")
	if res := doJSON(t, "POST", lts.URL+"/demote", nil, http.StatusOK); res["role"] != "follower" {
		t.Fatalf("/demote role %v, want follower", res["role"])
	}
	doJSON(t, "POST", lts.URL+"/demote", nil, http.StatusOK) // idempotent
	checkRejection(t, lts.URL+"/graphs/g/mutate", mut, http.StatusForbidden, "30")
}
