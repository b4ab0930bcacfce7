package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"gedlib"
)

// Server is the HTTP front of a catalog: JSON handlers with per-request
// contexts, admission control, and a /statsz endpoint. Build one with
// NewServer and mount Handler() on any http.Server; Close flushes every
// pending write.
type Server struct {
	cat     *Catalog
	adm     *admission
	handler http.Handler
}

// NewServer returns a server over a fresh catalog configured by cfg.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cat, err := NewCatalog(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{cat: cat, adm: newAdmission(cfg.MaxInFlight, cat.reg)}

	api := http.NewServeMux()
	api.HandleFunc("GET /graphs", s.handleList)
	api.HandleFunc("POST /graphs", s.handleCreate)
	api.HandleFunc("DELETE /graphs/{name}", s.handleDelete)
	api.HandleFunc("POST /graphs/{name}/rules", s.handleRules)
	api.HandleFunc("POST /graphs/{name}/mutate", s.handleMutate)
	api.HandleFunc("GET /graphs/{name}/violations", s.handleViolations)
	api.HandleFunc("POST /graphs/{name}/validate", s.handleValidate)
	api.HandleFunc("POST /graphs/{name}/chase", s.handleChase)
	api.HandleFunc("GET /graphs/{name}/stats", s.handleEntryStats)
	api.HandleFunc("POST /graphs/{name}/enable", s.handleEnable)

	// The observability endpoints — /healthz, /statsz, /metricsz,
	// /tracez, /versionz — bypass admission control: they must answer
	// even (especially) when the server is shedding load, or the
	// monitoring that explains an overload would be its first victim.
	root := http.NewServeMux()
	root.HandleFunc("GET /healthz", s.handleHealthz)
	root.HandleFunc("GET /statsz", s.handleStatsz)
	root.HandleFunc("GET /metricsz", s.handleMetricsz)
	root.HandleFunc("GET /tracez", s.handleTracez)
	root.HandleFunc("GET /versionz", s.handleVersionz)
	// The role transitions also bypass admission: a failover is exactly
	// when the server may be drowning in rejected writes, and the
	// operator's /promote must not queue behind them.
	root.HandleFunc("POST /promote", s.handlePromote)
	root.HandleFunc("POST /demote", s.handleDemote)
	root.Handle("/", s.adm.wrap(withTimeout(cfg.RequestTimeout, api)))
	s.handler = root
	return s, nil
}

// Restore re-adopts every graph persisted under the configured data
// directory; see Catalog.Restore.
func (s *Server) Restore(ctx context.Context) ([]string, error) { return s.cat.Restore(ctx) }

// Follow turns the server into a read-only replica of the configured
// data directory; see Catalog.Follow.
func (s *Server) Follow(ctx context.Context) error { return s.cat.Follow(ctx) }

// Catalog exposes the server's catalog (the daemon preloads through
// it; tests inspect it).
func (s *Server) Catalog() *Catalog { return s.cat }

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Close flushes and stops every graph's batcher.
func (s *Server) Close() { s.cat.Close() }

// ---- plumbing ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

// fail maps catalog/batcher errors onto status codes. The write
// rejections of the lifecycle states differ on purpose: ErrReadOnly
// (a follower) is 403 + Retry-After 30 — the wrong door; clients should
// go to the live leader, and retrying here only helps once this process
// is promoted. ErrDegraded (a failing disk the probe may heal any
// moment) and ErrFenced (a deposed leader; the client's routing will
// catch up with the new one) are 503 + Retry-After 5.
func fail(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotFound):
		httpError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, ErrExists), errors.Is(err, ErrNotFollower):
		httpError(w, http.StatusConflict, err.Error())
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrTooManyOps):
		httpError(w, http.StatusRequestEntityTooLarge, err.Error())
	case errors.Is(err, ErrReadOnly):
		w.Header().Set("Retry-After", "30")
		httpError(w, http.StatusForbidden, err.Error())
	case errors.Is(err, ErrDegraded), errors.Is(err, ErrFenced):
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusGone, err.Error())
	case errors.Is(err, ErrFlush):
		httpError(w, http.StatusInternalServerError, err.Error())
	case gedlib.IsCancellation(err):
		httpError(w, http.StatusGatewayTimeout, err.Error())
	default:
		httpError(w, http.StatusBadRequest, err.Error())
	}
}

func (s *Server) entry(w http.ResponseWriter, r *http.Request) (*GraphEntry, bool) {
	ent, err := s.cat.Get(r.PathValue("name"))
	if err != nil {
		fail(w, err)
		return nil, false
	}
	return ent, true
}

// presizeMax bounds the buffer readBody allocates on a declared length
// alone, before the bytes arrive: past it, the buffer grows as they do.
const presizeMax = 1 << 20

// readBody reads the request body, failing past limit bytes. A body of
// declared length within the limit (and presizeMax) is read into one
// buffer of that size; the server ends the body there.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body := http.MaxBytesReader(w, r.Body, limit)
	var data []byte
	var err error
	if n := r.ContentLength; n >= 0 && n <= min(limit, presizeMax) {
		data = make([]byte, n)
		_, err = io.ReadFull(body, data)
	} else {
		data, err = io.ReadAll(body)
	}
	if err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, err.Error())
		return nil, false
	}
	return data, true
}

func withTimeout(d time.Duration, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

func queryInt(q url.Values, key string, def int) int {
	if s := q.Get(key); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			return n
		}
	}
	return def
}

// ---- handlers ----

// handleHealthz reports per-graph serving health. The overall status is
// "ok" unless a graph is degraded or fenced — "fenced" if any is, since
// it never heals by itself. The response stays 200 either way (the
// process is up and serving reads — load balancers that should drain on
// degradation match on the body's status field).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rank := 0
	graphs := map[string]any{}
	for _, name := range s.cat.Names() {
		ent, err := s.cat.Get(name)
		if err != nil {
			continue
		}
		lc := ent.life.Load()
		row := lc.row()
		g := map[string]any{"health": row.health, "role": row.role}
		if lc.cause != nil {
			g["error"] = lc.cause.Error()
		}
		if e := ent.writeEpoch(); e != 0 {
			g["leader_epoch"] = e
		}
		graphs[name] = g
		rank = max(rank, row.rank)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": rollup[rank], "role": s.cat.Role(), "graphs": graphs,
	})
}

// handlePromote turns a follower into the leader: tails stop, every
// graph's WAL is drained to its end behind a freshly fenced epoch, and
// write batchers start. The response carries the graphs promoted, the
// epoch now held, and the measured promotion wall time (the RTO).
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	res, err := s.cat.Promote(r.Context())
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleDemote reboots the catalog as a follower of whatever epoch now
// owns the data directory — the recovery path for a fenced (deposed)
// leader. The new tails outlive the request (context.Background()).
func (s *Server) handleDemote(w http.ResponseWriter, r *http.Request) {
	if err := s.cat.Demote(context.Background()); err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"role": s.cat.Role()})
}

// handleEnable is the operator re-enable path for a degraded graph: it
// probes recovery immediately (heal checkpoint + republish) instead of
// waiting out the auto-probe backoff. Succeeds trivially on a healthy
// graph.
func (s *Server) handleEnable(w http.ResponseWriter, r *http.Request) {
	ent, ok := s.entry(w, r)
	if !ok {
		return
	}
	if err := ent.Probe(r.Context()); err != nil {
		fail(w, err)
		return
	}
	h, _ := ent.Health()
	writeJSON(w, http.StatusOK, map[string]string{"name": ent.Name(), "health": h})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	entries := s.cat.Stats()
	writeJSON(w, http.StatusOK, ServerStats{
		Graphs:           len(entries),
		InFlight:         s.adm.inFlight(),
		Admitted:         s.adm.admitted.Value(),
		RejectedRequests: s.adm.rejected.Value(),
		DataDir:          s.cat.DataDir(),
		Follower:         s.cat.IsFollower(),
		Role:             s.cat.Role(),
		Entries:          entries,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.cat.Names()})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	body, ok := readBody(w, r, 64<<20)
	if !ok {
		return
	}
	var graphJSON []byte
	if len(body) > 0 {
		graphJSON = body
	}
	ent, err := s.cat.Create(name, graphJSON)
	if err != nil {
		fail(w, err)
		return
	}
	view := ent.CurrentView()
	writeJSON(w, http.StatusCreated, map[string]any{
		"name":  ent.Name(),
		"nodes": view.Snap.NumNodes(),
		"edges": view.Snap.NumEdges(),
	})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.cat.Delete(r.PathValue("name")); err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	ent, ok := s.entry(w, r)
	if !ok {
		return
	}
	body, ok := readBody(w, r, 4<<20)
	if !ok {
		return
	}
	view, err := ent.RegisterRules(r.Context(), string(body))
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"rules":      len(view.Rules),
		"violations": len(view.Violations),
		"epoch":      view.Epoch,
	})
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	ent, ok := s.entry(w, r)
	if !ok {
		return
	}
	body, ok := readBody(w, r, 4<<20)
	if !ok {
		return
	}
	var req struct {
		Ops []Op `json:"ops"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad mutate body: "+err.Error())
		return
	}
	if len(req.Ops) == 0 {
		httpError(w, http.StatusBadRequest, "no ops")
		return
	}
	res, err := ent.Mutate(r.Context(), req.Ops)
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleViolations answers a page of the maintained violation set of the
// current view. ?limit= defaults to 100, and a negative limit returns the
// rest of the set. ?offset= defaults to 0 and is clamped into [0, total].
// A value that does not parse as an integer falls back to its default.
func (s *Server) handleViolations(w http.ResponseWriter, r *http.Request) {
	ent, ok := s.entry(w, r)
	if !ok {
		return
	}
	view := ent.CurrentView()
	vs := view.Violations
	total := len(vs)
	q := r.URL.Query()
	offset := queryInt(q, "offset", 0)
	if offset < 0 {
		offset = 0
	}
	if offset > total {
		offset = total
	}
	vs = vs[offset:]
	if limit := queryInt(q, "limit", 100); limit >= 0 && len(vs) > limit {
		vs = vs[:limit]
	}
	writeViolationPage(w, view, total, vs)
}

// handleValidate re-validates the neighborhoods of the requested nodes
// against the latest view — the "is this region clean right now" read.
// With no nodes it reports whether the whole graph currently satisfies
// its rules (from the maintained set, O(1)).
func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	ent, ok := s.entry(w, r)
	if !ok {
		return
	}
	body, ok := readBody(w, r, 1<<20)
	if !ok {
		return
	}
	var req struct {
		Nodes []string `json:"nodes"`
		Limit int      `json:"limit"`
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			httpError(w, http.StatusBadRequest, "bad validate body: "+err.Error())
			return
		}
	}
	view := ent.CurrentView()
	if len(req.Nodes) == 0 {
		writeJSON(w, http.StatusOK, map[string]any{
			"satisfies": len(view.Violations) == 0,
			"epoch":     view.Epoch,
		})
		return
	}
	ids := make([]gedlib.NodeID, 0, len(req.Nodes))
	for _, n := range req.Nodes {
		id, ok := view.Names.Resolve(n)
		if !ok {
			httpError(w, http.StatusBadRequest, "unknown node "+strconv.Quote(n))
			return
		}
		ids = append(ids, id)
	}
	vs, err := view.Val.TouchingCtx(r.Context(), ids, req.Limit)
	if err != nil {
		fail(w, err)
		return
	}
	writeTouching(w, view, vs)
}

func (s *Server) handleChase(w http.ResponseWriter, r *http.Request) {
	ent, ok := s.entry(w, r)
	if !ok {
		return
	}
	res, err := ent.Chase(r.Context())
	if err != nil {
		fail(w, err)
		return
	}
	out := map[string]any{
		"consistent": res.Consistent(),
		"steps":      len(res.Steps),
	}
	if res.Consistent() {
		m := res.Materialize()
		out["nodes"], out["edges"] = m.NumNodes(), m.NumEdges()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleEntryStats(w http.ResponseWriter, r *http.Request) {
	ent, ok := s.entry(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, ent.Stats())
}

// handleMetricsz renders the catalog registry in the Prometheus text
// exposition format: flush pipeline stage histograms, WAL/checkpoint
// counters, engine and matcher profiles, per-graph health — everything
// the process observed, one scrape.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.cat.reg.WritePrometheus(w)
}

// handleTracez serves the observer's recent-span ring as JSON, newest
// first. Query parameters filter: ?graph= and ?op= match exactly,
// ?min= (a Go duration, e.g. 5ms) keeps only spans at least that slow,
// ?limit= bounds the count (default 64).
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	graph, op := q.Get("graph"), q.Get("op")
	var min time.Duration
	if ms := q.Get("min"); ms != "" {
		d, err := time.ParseDuration(ms)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad min duration: "+err.Error())
			return
		}
		min = d
	}
	limit := queryInt(q, "limit", 64)
	spans := s.cat.tracer().Recent(limit, func(sd *gedlib.SpanData) bool {
		if graph != "" && sd.Graph != graph {
			return false
		}
		if op != "" && sd.Op != op {
			return false
		}
		return sd.Dur >= min
	})
	if spans == nil {
		spans = []*gedlib.SpanData{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(spans), "spans": spans})
}

// handleVersionz reports the build's identity (module version, VCS
// revision, Go toolchain) from the binary's embedded build info.
func (s *Server) handleVersionz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, VersionInfo())
}
