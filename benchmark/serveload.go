package main

// The two serve workloads: an in-process server in its shipped
// configuration behind httptest, two closed-loop clients on two
// keep-alive connections.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"gedlib"
	"gedlib/persist"
	"gedlib/serve"
	"gedlib/workload"
)

const (
	serveClients = 2
	// spanHeader carries a traced client span's id to the handler
	// middleware, which records its span as that one's child.
	spanHeader = "X-Bench-Span"
)

// tenantSpec is one tenant graph: its knowledge-base scale and the
// index of its generated input (see inputSeed).
type tenantSpec struct {
	scale      int
	seedOffset int64
}

type serveWorkload struct {
	r      *run
	ingest bool
	specs  []tenantSpec

	dir     string
	srv     *serve.Server
	ts      *httptest.Server
	fs      *countingFS // traced runs only
	flushes flushLog    // traced runs only
	tenants []tenantInfo
	rules   string
	clients []*client
	fp      *fingerprint
}

// flushLog collects the server's own flush spans and their stages
// (source C), delivered through Config.OnSlowOp.
type flushLog struct {
	mu     sync.Mutex
	on     bool
	stages map[string][]float64 // stage name -> ns; "total" is the span
}

func (l *flushLog) add(sd *gedlib.SpanData) {
	if sd.Op != "flush" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.on {
		return
	}
	if l.stages == nil {
		l.stages = map[string][]float64{}
	}
	l.stages["total"] = append(l.stages["total"], float64(sd.Dur))
	for _, st := range sd.Stages {
		l.stages[st.Name] = append(l.stages[st.Name], float64(st.Dur))
	}
}

func (l *flushLog) enable(on bool) {
	l.mu.Lock()
	l.on = on
	l.mu.Unlock()
}

func (w *serveWorkload) setup() (err error) {
	r := w.r
	if w.dir, err = os.MkdirTemp(r.tmp, "data-"); err != nil {
		return err
	}
	// The shipped configuration: only the data dir is set. A traced run
	// adds its three observation hooks and nothing else.
	cfg := serve.Config{DataDir: w.dir}
	if r.traced {
		w.fs = newCountingFS(persist.OSFS())
		cfg.FS, cfg.SlowOp, cfg.OnSlowOp = w.fs, time.Nanosecond, w.flushes.add
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return err
	}
	w.srv = srv
	h := srv.Handler()
	if r.traced {
		h = w.traceHandler(h)
	}
	w.ts = httptest.NewServer(h)
	w.rules, w.fp = kbRulesDSL(), newFingerprint()
	w.fp.add([]byte(w.rules))
	hc := &http.Client{}
	for k, spec := range w.specs {
		g, _ := workload.KnowledgeBase(r.inputSeed(spec.seedOffset), spec.scale, 0.1)
		data, err := gedlib.MarshalGraph(g)
		if err != nil {
			return err
		}
		w.fp.add(data)
		name := fmt.Sprintf("t%d", k)
		if err := w.post(hc, "/graphs?name="+name, data, http.StatusCreated); err != nil {
			return err
		}
		if err := w.post(hc, "/graphs/"+name+"/rules", []byte(w.rules), http.StatusOK); err != nil {
			return err
		}
		w.tenants = append(w.tenants, newTenantInfo(name, g))
	}
	hc.CloseIdleConnections()
	for id := 0; id < serveClients; id++ {
		w.clients = append(w.clients, w.newClient(id))
	}
	spans := r.tr.enabled()
	r.tr.enable(false) // set-up records loader and oracle spans, not warm-up requests
	warm := w.drive(false, func() *phase { return &phase{fixed: w.perClient(r.pick(2000, 50), r.pick(16, 4))} })
	r.tr.enable(spans)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", warm.failed, warm.attempted)
	}
	return nil
}

// perClient chooses a per-client request count by workload: an ingest
// request carries 128 ops, a read-mostly one about one.
func (w *serveWorkload) perClient(readMostly, ingest int) int {
	if w.ingest {
		return ingest
	}
	return readMostly
}

func (w *serveWorkload) post(hc *http.Client, path string, body []byte, want int) error {
	resp, err := hc.Post(w.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, msg)
	}
	return nil
}

func (w *serveWorkload) close() {
	for _, c := range w.clients {
		c.hc.CloseIdleConnections()
	}
	if w.ts != nil {
		w.ts.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	os.RemoveAll(w.dir)
	*w = serveWorkload{r: w.r, ingest: w.ingest, specs: w.specs}
}

// generator returns client id's request stream from its beginning.
func (w *serveWorkload) generator(id int) func() request {
	if w.ingest {
		return newIngestGen(w.r.inputSeed(50), id, w.tenants[id]).next
	}
	return newReadMostlyGen(w.r.inputSeed(50), id, serveClients, w.tenants).next
}

// traceHandler records one span per traced request around the server's
// own handler, as a child of the client span named in the header.
func (w *serveWorkload) traceHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		parent, err := strconv.Atoi(req.Header.Get(spanHeader))
		if err != nil {
			h.ServeHTTP(rw, req)
			return
		}
		name := "serve.handler_other"
		for _, route := range []string{"violations", "validate", "stats", "mutate"} {
			if strings.HasSuffix(req.URL.Path, "/"+route) {
				name = "serve.handler_" + route
			}
		}
		id := w.r.tr.start(int32(parent), -1, name)
		h.ServeHTTP(rw, req)
		w.r.tr.end(id)
	})
}

// ---- clients ----

// tally is what one client observed over one phase.
type tally struct {
	attempted, failed int
	read, write       []float64 // ns of the requests that succeeded
	respBytes         int64     // of reads
	reqBytes          int64     // of writes
	violations        int       // rendered in read responses
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.read = append(t.read, o.read...)
	t.write = append(t.write, o.write...)
	t.respBytes += o.respBytes
	t.reqBytes += o.reqBytes
	t.violations += o.violations
}

func (t *tally) ok() int { return len(t.read) + len(t.write) }

type client struct {
	w    *serveWorkload
	id   int
	hc   *http.Client
	next func() request
	sent int // requests drawn from the generator so far
	// seen is, per tenant, the highest graph version a response showed
	// this client. Views only move forward and a write returns after its
	// flush, so a lower version later breaks monotonicity or
	// read-your-writes.
	seen    []uint64
	markers []string // one added node per acknowledged write
	t       *tally
}

func (w *serveWorkload) newClient(id int) *client {
	return &client{w: w, id: id, next: w.generator(id), seen: make([]uint64, len(w.tenants)),
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

// opID is the id the spans of the client's current request share.
func (c *client) opID() int { return c.sent*serveClients + c.id }

// step sends the client's next request (on serve_ingest, every fourth
// write is followed by a read of the same tenant).
func (c *client) step() {
	req := c.next()
	c.sent++
	c.do(req)
	if c.w.ingest && c.sent%4 == 0 {
		c.do(request{class: reqList, tenant: req.tenant, method: "GET",
			path: "/graphs/" + c.w.tenants[req.tenant].name + "/violations?limit=100"})
	}
}

// do sends one request, checks the answer and tallies it.
func (c *client) do(req request) {
	w, tr := c.w, c.w.r.tr
	spanName := "http.client_read"
	if !req.class.isRead() {
		spanName = "http.client_write"
	}
	c.t.attempted++
	hreq, err := http.NewRequestWithContext(w.r.ctx, req.method, w.ts.URL+req.path, bytes.NewReader(req.body))
	if err != nil {
		c.t.failed++
		return
	}
	id := tr.start(-1, c.opID(), spanName)
	if id >= 0 {
		hreq.Header.Set(spanHeader, strconv.Itoa(int(id)))
	}
	t0 := time.Now()
	var body []byte
	resp, err := c.hc.Do(hreq)
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	ns := float64(time.Since(t0))
	tr.end(id)
	if err != nil || resp.StatusCode != http.StatusOK || !c.check(req, body) {
		c.t.failed++
		return
	}
	if req.class.isRead() {
		c.t.read = append(c.t.read, ns)
		c.t.respBytes += int64(len(body))
	} else {
		c.t.write = append(c.t.write, ns)
		c.t.reqBytes += int64(len(req.body))
	}
}

// check decodes a 200 response and holds it to the serving guarantees.
func (c *client) check(req request, body []byte) bool {
	var version uint64
	switch req.class {
	case reqList:
		var v struct {
			Total      int
			Version    uint64
			Violations []json.RawMessage
		}
		if json.Unmarshal(body, &v) != nil || len(v.Violations) > v.Total {
			return false
		}
		version = v.Version
		c.t.violations += len(v.Violations)
	case reqValidate:
		var v struct {
			Epoch uint64
			Count *int
		}
		if json.Unmarshal(body, &v) != nil || v.Count == nil {
			return false
		}
		c.t.violations += *v.Count
		return c.checkTouching(req, v.Epoch, *v.Count)
	case reqStats:
		var v serve.EntryStats
		if json.Unmarshal(body, &v) != nil || v.Name != c.w.tenants[req.tenant].name {
			return false
		}
		version = v.Version
	case reqMutate:
		var v serve.WriteResult
		if json.Unmarshal(body, &v) != nil || v.Applied != len(req.ops) || len(v.OpErrors) > 0 {
			return false
		}
		version = v.Version
		if req.marker != "" {
			c.markers = append(c.markers, req.marker)
		}
	}
	if version < c.seen[req.tenant] {
		return false
	}
	c.seen[req.tenant] = version
	return true
}

// checkTouching is the decomposed twin of a traced validate read: the
// same Validator.TouchingCtx call on the view the server serves, timed
// from outside, whose count must agree when the view has not moved.
func (c *client) checkTouching(req request, epoch uint64, count int) bool {
	tr := c.w.r.tr
	if !tr.enabled() {
		return true
	}
	var nodes struct{ Nodes []string }
	if json.Unmarshal(req.body, &nodes) != nil {
		return false
	}
	ent, err := c.w.srv.Catalog().Get(c.w.tenants[req.tenant].name)
	if err != nil {
		return false
	}
	view := ent.CurrentView()
	ids := make([]gedlib.NodeID, 0, len(nodes.Nodes))
	for _, n := range nodes.Nodes {
		nid, ok := view.Names.Resolve(n)
		if !ok {
			return false
		}
		ids = append(ids, nid)
	}
	id := tr.start(-1, c.opID(), "reason.touching")
	vs, err := view.Val.TouchingCtx(c.w.r.ctx, ids, 0)
	tr.end(id)
	return err == nil && (view.Epoch != epoch || len(vs) == count)
}

// drive runs every client through one phase and returns what they saw,
// merged. record=false is the warm-up: tallied only to catch failures.
func (w *serveWorkload) drive(record bool, newPhase func() *phase) *tally {
	var wg sync.WaitGroup
	for _, c := range w.clients {
		c.t = &tally{}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			ph := newPhase()
			for n := 0; ph.more(n); n++ {
				c.step()
			}
		}(c)
	}
	wg.Wait()
	total := &tally{}
	for _, c := range w.clients {
		total.merge(c.t)
	}
	if record {
		w.r.res.Attempted += total.attempted
		w.r.res.Failed += total.failed
	}
	return total
}

// ---- the run ----

func runServeReadMostly(r *run) error {
	s := r.pick(2000, 60)
	return runServe(&serveWorkload{r: r, specs: []tenantSpec{{s, 30}, {s / 4, 31}, {s / 16, 32}}})
}

func runServeIngest(r *run) error {
	s := r.pick(2000, 60)
	return runServe(&serveWorkload{r: r, ingest: true, specs: []tenantSpec{{s, 40}, {s, 41}}})
}

// window is what the server's own surfaces read at one instant.
type window struct {
	stats serve.ServerStats
	prom  string
	fs    fsCounters
}

// flushTotals sums /statsz over tenants: flushes, the ops and requests
// they carried, and requests or writes the server refused.
func (win window) flushTotals() (flushes, ops, reqs, rejected float64) {
	rejected = float64(win.stats.RejectedRequests)
	for _, e := range win.stats.Entries {
		flushes += float64(e.Flushes)
		ops += float64(e.FlushedOps)
		reqs += float64(e.FlushedReqs)
		rejected += float64(e.RejectedWrites)
	}
	return flushes, ops, reqs, rejected
}

func (w *serveWorkload) readWindow() (win window, err error) {
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	get := func(path string) ([]byte, error) {
		resp, err := hc.Get(w.ts.URL + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}
	body, err := get("/statsz")
	if err == nil {
		err = json.Unmarshal(body, &win.stats)
	}
	if err != nil {
		return win, fmt.Errorf("/statsz: %w", err)
	}
	if body, err = get("/metricsz"); err != nil {
		return win, fmt.Errorf("/metricsz: %w", err)
	}
	win.prom = string(body)
	if w.fs != nil {
		win.fs = w.fs.counters()
	}
	return win, nil
}

func runServe(w *serveWorkload) error {
	r := w.r
	defer w.close()
	if err := r.timeSetups(w.setup, w.close); err != nil {
		return err
	}
	w.fp.addRequests(w.generator(0))
	if err := r.checkFingerprint(w.fp); err != nil {
		return err
	}
	quickN := w.perClient(150, 6) // requests per client and slice under -quick
	if !r.traced {
		m := startMeter()
		t := w.drive(true, func() *phase { return r.phase(1, 0, quickN, 1) })
		m.pause()
		r.reportEndToEnd(append(append([]float64(nil), t.read...), t.write...), m)
		// On serve_ingest the write p95 sits on the checkpoint cliff and
		// does not repeat; its tail is serve.write_p99_ms.
		r.setPercentiles("read", t.read, !w.ingest)
		r.setPercentiles("write", t.write, !w.ingest)
		return w.finish(nil)
	}
	// The server's own surfaces (sources B, C, D) are read over the whole
	// measured phase; the benchmark's spans only in its traced slices.
	before, err := w.readWindow()
	if err != nil {
		return err
	}
	w.flushes.enable(true)
	all, traced := &tally{}, &tally{}
	var baseOK int
	var baseWall, tracedWall time.Duration
	for k := 0; k < r.traceSlices(); k++ {
		spans := r.sliceTraced(k)
		r.tr.enable(spans)
		t0 := time.Now()
		t := w.drive(true, func() *phase { return r.phase(1/float64(r.traceSlices()), 0, quickN, 1) })
		all.merge(t)
		if spans {
			traced.merge(t)
			tracedWall += time.Since(t0)
		} else {
			baseOK += t.ok()
			baseWall += time.Since(t0)
		}
	}
	w.flushes.enable(false)
	r.overhead(float64(baseOK)/baseWall.Seconds(), float64(traced.ok())/tracedWall.Seconds())
	after, err := w.readWindow()
	if err != nil {
		return err
	}
	w.reportLayers(all, traced, before, after)
	return w.finish(traced)
}

// reportLayers sets the per-layer metrics of a traced run: t is what
// the clients saw over the whole measured phase, traced over its traced
// slices, before and after what the server's surfaces read around it.
func (w *serveWorkload) reportLayers(t, traced *tally, before, after window) {
	r := w.r
	spans := r.tr.finished()
	d, self := durations(spans), selfTimes(spans)
	selfOf := func(name string) (out []float64) {
		for _, s := range spans {
			if s.Name == name {
				out = append(out, float64(self[s.ID]))
			}
		}
		return out
	}
	r.layerMedian("http.client_read_us", d["http.client_read"], 1e3)
	r.layerMedian("http.client_write_us", d["http.client_write"], 1e3)
	r.layerMedian("http.transport_read_us", selfOf("http.client_read"), 1e3)
	r.layerMedian("http.transport_write_us", selfOf("http.client_write"), 1e3)
	r.layerMedian("serve.handler_list_us", d["serve.handler_violations"], 1e3)
	r.layerMedian("serve.handler_validate_us", d["serve.handler_validate"], 1e3)
	r.layerMedian("serve.handler_stats_us", d["serve.handler_stats"], 1e3)
	r.layerMedian("serve.handler_mutate_us", d["serve.handler_mutate"], 1e3)
	r.layerMedian("reason.touching_us", d["reason.touching"], 1e3)
	r.set("serve.handler_validate_self_us",
		r.res.Metrics["serve.handler_validate_us"]-r.res.Metrics["reason.touching_us"], len(d["reason.touching"]))
	reads, writes := float64(max(len(t.read), 1)), float64(max(len(t.write), 1))
	r.set("serve.resp_bytes_per_read", float64(t.respBytes)/reads, len(t.read))
	r.set("serve.req_bytes_per_write", float64(t.reqBytes)/writes, len(t.write))
	r.set("reason.violations_per_op", float64(t.violations)/reads, len(t.read))
	if v, ok := tailPercentile(sorted(t.read), 0.99); ok {
		r.set("serve.read_p99_us", v/1e3, len(t.read))
	}
	if v, ok := tailPercentile(sorted(t.write), 0.99); ok {
		r.set("serve.write_p99_ms", v/1e6, len(t.write))
	}

	// Source C: the server's flush spans.
	st := w.flushes.stages
	r.layerMedian("serve.flush_queue_wait_us", st["queue_wait"], 1e3)
	r.layerMedian("serve.flush_mutate_us", st["mutate"], 1e3)
	r.layerMedian("serve.flush_publish_us", st["publish"], 1e3)
	r.layerMedian("serve.flush_total_us", st["total"], 1e3)
	r.layerMedian("persist.wal_append_us", st["wal_append"], 1e3)
	r.layerMedian("persist.fsync_us", st["fsync"], 1e3)
	r.layerMedian("engine.apply_us", st["apply"], 1e3)

	// /statsz and /metricsz, before and after.
	f0, o0, q0, j0 := before.flushTotals()
	flushes, ops, reqs, rejected := after.flushTotals()
	flushes, ops, reqs, rejected = flushes-f0, ops-o0, reqs-q0, rejected-j0
	nf := int(flushes)
	flushes, ops = max(flushes, 1), max(ops, 1)
	r.set("serve.ops_per_flush", ops/flushes, nf)
	r.set("serve.reqs_per_flush", reqs/flushes, nf)
	r.set("serve.rejected_frac", rejected/float64(max(t.attempted, 1)), t.attempted)
	r.reportStore(readStoreCounters(before.prom), readStoreCounters(after.prom), nf)
	r.reportMatch(readMatchCounters(before.prom), readMatchCounters(after.prom), t.attempted,
		sum(st["apply"])/float64(max(t.attempted, 1))+sum(d["serve.handler_validate"])/float64(max(traced.attempted, 1)))

	// Source D: what persist asked of the device.
	a, b := after.fs, before.fs
	r.set("persist.wal_bytes_per_op", float64(a.walBytes-b.walBytes)/ops, int(ops))
	r.set("persist.checkpoints", float64(a.checkpoints-b.checkpoints), 1)
	r.layerMedian("persist.checkpoint_ms", a.ckNS[len(b.ckNS):], 1e6)
	r.set("fs.writes_per_flush", float64(a.writes-b.writes)/flushes, nf)
	r.set("fs.syncs_per_flush", float64(a.syncs-b.syncs)/flushes, nf)
	r.layerMedian("fs.write_us", a.writeNS[len(b.writeNS):], 1e3)
	r.layerMedian("fs.sync_us", a.syncNS[len(b.syncNS):], 1e3)
	r.set("fs.bytes_per_op", float64(a.bytes-b.bytes)/ops, int(ops))
	r.set("fs.checkpoint_bytes_per_op", float64(a.ckptBytes-b.ckptBytes)/ops, int(ops))
	r.set("fs.data_dir_mb", float64(dirBytes(w.dir))/(1<<20), 1)
}

// twin is the benchmark's own copy of one tenant, fed the same ops.
type twin struct {
	g     *gedlib.Graph
	names map[string]gedlib.NodeID
}

// finish holds the server's final state to the twin graphs and, on
// serve_ingest, measures and checks recovery. t is the traced phase's
// tally, nil on an untraced run.
func (w *serveWorkload) finish(t *tally) error {
	r := w.r
	sigma, err := r.parse(w.rules)
	if err != nil {
		return err
	}
	// Rebuild every tenant as generated and replay each client's stream:
	// the generators are deterministic, so no request log is kept.
	twins := make([]*twin, len(w.specs))
	for k, spec := range w.specs {
		g, _ := workload.KnowledgeBase(r.inputSeed(spec.seedOffset), spec.scale, 0.1)
		data, err := gedlib.MarshalGraph(g)
		if err != nil {
			return err
		}
		tw := &twin{}
		if tw.g, tw.names, err = r.load(data); err != nil {
			return err
		}
		twins[k] = tw
	}
	calls, replayNS := 0, 0.0
	for _, c := range w.clients {
		next := w.generator(c.id)
		for i := 0; i < c.sent; i++ {
			req := next()
			if req.class != reqMutate {
				continue
			}
			t0 := time.Now()
			n, err := applyServeOps(twins[req.tenant].g, twins[req.tenant].names, req.ops)
			replayNS += float64(time.Since(t0))
			calls += n
			if err != nil {
				return err
			}
		}
	}
	want := make([]int, len(twins))
	for k, tw := range twins {
		vs, err := r.oracle(-1, -1, tw.g, sigma)
		if err != nil {
			return err
		}
		want[k] = len(vs)
	}
	w.gateTotals(w.srv, want, "final")
	if t != nil {
		r.set("graph.mutate_us", replayNS/1e3/float64(max(calls, 1)), calls)
		for i := 0; i < 3; i++ {
			var img *gedlib.GraphImage
			r.tr.timed(-1, -1, "graph.export_image", func() { img = gedlib.ExportImage(twins[0].g) })
			r.tr.timed(-1, -1, "graph.import_image", func() { _, err = gedlib.ImportImage(img) })
			if err != nil {
				return err
			}
		}
	}
	if w.ingest {
		if err := w.recoveries(t != nil, want); err != nil {
			return err
		}
	}
	if t != nil {
		d := durations(r.tr.finished())
		r.reportOracleLayers(d)
		r.layerMedian("graph.export_image_ms", d["graph.export_image"], 1e6)
		r.layerMedian("graph.import_image_ms", d["graph.import_image"], 1e6)
		r.layerMedian("persist.recover_ms", d["persist.recover"], 1e6)
		r.layerMedian("serve.restore_ms", d["serve.restore"], 1e6)
		if w.ingest {
			r.set("serve.restore_self_ms", r.res.Metrics["serve.restore_ms"]-r.res.Metrics["persist.recover_ms"], len(d["serve.restore"]))
		}
	}
	return nil
}

// gateTotals holds each tenant's served violation total to the oracle's.
func (w *serveWorkload) gateTotals(srv *serve.Server, want []int, when string) {
	for k, tenant := range w.tenants {
		ent, err := srv.Catalog().Get(tenant.name)
		if !w.r.gate(err == nil, "%s: tenant %s is not served: %v", when, tenant.name, err) {
			continue
		}
		got := len(ent.CurrentView().Violations)
		w.r.gate(got == want[k], "%s: tenant %s serves %d violations, a fresh validation of the twin finds %d", when, tenant.name, got, want[k])
	}
}

// restore boots a second server on a copy of the data dir and waits
// until every graph serves.
func (w *serveWorkload) restore(dir string, want []int, when string) (time.Duration, *serve.Server, error) {
	t0 := time.Now()
	var srv *serve.Server
	var names []string
	var err error
	w.r.tr.timed(-1, -1, "serve.restore", func() {
		if srv, err = serve.NewServer(serve.Config{DataDir: dir}); err == nil {
			names, err = srv.Restore(w.r.ctx)
		}
	})
	took := time.Since(t0)
	if err != nil {
		if srv != nil {
			srv.Close()
		}
		return 0, nil, fmt.Errorf("%s: %w", when, err)
	}
	w.r.gate(len(names) == len(w.tenants), "%s: restored %d of %d graphs", when, len(names), len(w.tenants))
	w.gateTotals(srv, want, when)
	return took, srv, nil
}

// recoveries measures crash recovery on copies of the data dir taken
// after the last ack and before Close (Close checkpoints; a crash does
// not). A traced run also recovers through persist directly and from a
// crash-cut image holding only flushed bytes.
func (w *serveWorkload) recoveries(traced bool, want []int) error {
	r := w.r
	var secs []float64
	for i := 0; i < r.pick(5, 1); i++ {
		dir := filepath.Join(r.tmp, fmt.Sprintf("crash-%d", i))
		if err := copyTree(w.dir, dir, wholeFiles); err != nil {
			return err
		}
		if traced {
			replayed := 0
			var err error
			r.tr.timed(-1, -1, "persist.recover", func() {
				var st *persist.Store
				if st, err = persist.Open(dir, persist.Options{}); err != nil {
					return
				}
				for _, tenant := range w.tenants {
					var rec *persist.Recovery
					if rec, err = st.Recover(tenant.name); err != nil {
						return
					}
					replayed += rec.ReplayedOps
				}
			})
			if err != nil {
				return fmt.Errorf("persist recover: %w", err)
			}
			r.set("persist.replayed_ops", float64(replayed), 1)
		}
		took, srv, err := w.restore(dir, want, "after recovery")
		if err != nil {
			return err
		}
		srv.Close()
		os.RemoveAll(dir)
		secs = append(secs, took.Seconds())
	}
	if !traced {
		r.set("recover_s", median(secs), len(secs))
		return nil
	}
	dir := filepath.Join(r.tmp, "crash-cut")
	if err := w.fs.crashImage(w.dir, dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	_, srv, err := w.restore(dir, want, "after a crash cut")
	if err != nil {
		return err
	}
	defer srv.Close()
	lost, acked := 0, 0
	for _, c := range w.clients {
		ent, err := srv.Catalog().Get(w.tenants[c.id].name)
		if err != nil {
			return err
		}
		names := ent.CurrentView().Names
		for _, m := range c.markers {
			acked++
			if _, ok := names.Resolve(m); !ok {
				lost++
			}
		}
	}
	r.set("persist.lost_acked_writes", float64(lost), acked)
	r.gate(lost == 0, "%d of %d acknowledged writes are missing after restoring from flushed bytes only", lost, acked)
	return nil
}
