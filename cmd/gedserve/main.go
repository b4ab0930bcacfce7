// Command gedserve is the GED serving daemon: a multi-tenant catalog of
// property graphs behind an HTTP+JSON API, with per-graph write
// coalescing and a perpetually maintained violation set per registered
// rule set.
//
//	gedserve -addr :8080
//	gedserve -addr :8080 -load kb=testdata/kb.json -rules kb=testdata/rules.ged
//	gedserve -addr :8080 -data /var/lib/gedserve            # durable leader
//	gedserve -addr :8081 -follow /var/lib/gedserve          # read replica
//
// With -data, every graph is persisted under the directory (per-graph
// delta WAL + periodic checkpoints); rebooting with the same -data
// restores the catalog — newest checkpoint plus WAL-tail replay — so a
// crash loses at most the writes whose mutate requests had not yet
// returned. -fsync picks the WAL sync policy (always, batch, off);
// -checkpoint-every the ops between checkpoints. With -follow, the
// process tails another gedserve's -data directory as a read-only
// replica: mutations are rejected with 403 and /statsz reports the
// replication lag. -rescan sets how often a follower rescans the
// directory for graphs created after it started.
//
// Failover: when the leader dies, POST /promote on a follower turns it
// into the leader in place — the promotion drains the WAL to its true
// durable end, bumps each graph's leadership epoch, and fences the old
// epoch, so a deposed or rebooted stale leader can never acknowledge
// another write (its appends fail, the graph turns read-only "fenced",
// and /healthz says so). POST /demote sends a leader back to tailing
// the directory as a follower. -epoch pins the epoch a rebooting
// process assumes it owns (operator forensics: rebooting an old leader
// binary with its pre-failover epoch comes up fenced instead of
// split-brained); normal reboots omit it and adopt the newest epoch on
// disk. See the README's "Failover & roles" section for the runbook.
//
// API (all JSON):
//
//	POST   /graphs?name=N          create graph N (body: optional graph JSON)
//	DELETE /graphs/{name}          drop a graph (flushes pending writes)
//	GET    /graphs                 list graphs
//	POST   /graphs/{name}/rules    register rules (body: GED DSL text)
//	POST   /graphs/{name}/mutate   {"ops":[{"op":"set_attr",...},...]} — returns after flush
//	GET    /graphs/{name}/violations?limit=&offset=
//	                               a page of the maintained set: limit defaults to 100,
//	                               a negative limit returns the rest of the set, and an
//	                               unparsable limit or offset falls back to its default;
//	                               offset (default 0) is clamped into [0, total]
//	POST   /graphs/{name}/validate {"nodes":["id",...]} — targeted re-validation
//	POST   /graphs/{name}/chase    run the chase over a point-in-time copy
//	GET    /graphs/{name}/stats    per-graph serving stats
//	POST   /graphs/{name}/enable   re-enable a degraded graph (forces a recovery probe)
//	POST   /promote                promote this follower to leader (bypasses admission)
//	POST   /demote                 demote this leader back to follower (bypasses admission)
//	GET    /statsz                 server-wide stats (bypasses admission)
//	GET    /healthz                per-graph health+role: ok|degraded|fenced|readonly (bypasses admission)
//	GET    /metricsz               Prometheus text metrics (bypasses admission)
//	GET    /tracez                 recent traced operations, ?graph=&op=&min=&limit= (bypasses admission)
//	GET    /versionz               build identity from embedded build info (bypasses admission)
//
// The observability endpoints bypass admission control for the same
// reason /healthz does: the monitoring that explains an overload must
// not be shed by it. -slow-op D logs every traced operation (flushes,
// with per-stage timings) that takes at least D; -version prints the
// build identity and exits.
//
// When a graph's disk starts failing, the server degrades instead of
// limping: the last published view keeps serving reads, mutations get
// 503 + Retry-After, /healthz reports the graph degraded with the
// causing error, and an auto-probe re-enables the graph once the disk
// heals (or an operator forces it via /enable). -fault injects a
// deterministic disk-fault schedule for testing exactly that path.
//
// With -pprof, the net/http/pprof debug endpoints are additionally
// served under /debug/pprof/ (bypassing admission control), so
// serving-path matcher profiles can be captured in situ:
//
//	gedserve -addr :8080 -pprof
//	go tool pprof http://localhost:8080/debug/pprof/profile?seconds=10
//
// Consistency model: a write is visible to every subsequent read once
// its mutate request returns; reads see the state as of the last
// flushed batch. See package gedlib/serve.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gedlib/persist/fault"
	"gedlib/serve"
)

// assignList collects repeatable name=path flags.
type assignList []string

func (a *assignList) String() string { return strings.Join(*a, ",") }
func (a *assignList) Set(s string) error {
	if !strings.Contains(s, "=") {
		return fmt.Errorf("want name=path, got %q", s)
	}
	*a = append(*a, s)
	return nil
}

func main() {
	var loads, rules assignList
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "validation workers per request (0 = sequential)")
	chaseDepth := flag.Int("chase-depth", 0, "chase round bound (0 = unbounded)")
	flushOps := flag.Int("flush-ops", 0, "flush a write queue at this many pending ops (0 = default)")
	maxDelay := flag.Duration("flush-delay", 0, "flush a non-empty write queue after this delay (0 = default)")
	maxQueue := flag.Int("queue", 0, "max pending write ops per graph (0 = default)")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrently admitted requests (0 = default)")
	reqTimeout := flag.Duration("request-timeout", 0, "per-request context timeout (0 = default)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (profiling the serving-path matcher in situ)")
	dataDir := flag.String("data", "", "durable data directory (per-graph WAL + checkpoints); reboot with the same directory to restore")
	fsync := flag.String("fsync", "batch", "WAL fsync policy: always, batch or off")
	ckptEvery := flag.Int("checkpoint-every", 0, "ops between checkpoints (0 = default)")
	follow := flag.String("follow", "", "follow a leader's -data directory as a read-only replica (POST /promote to take over)")
	rescan := flag.Duration("rescan", 0, "follower rescan interval for graphs created after startup (0 = default 1s)")
	epoch := flag.Int64("epoch", -1, "leadership epoch to assume on restore (testing/forensics; -1 = adopt the newest epoch on disk)")
	faultSpec := flag.String("fault", "", "inject disk faults (testing): e.g. 'enospc:path=wal-:after=65536; eio:op=sync:k=2'")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the -fault schedule's torn-write sizes")
	slowOp := flag.Duration("slow-op", 0, "log traced operations at least this slow, with per-stage timings (0 = off)")
	version := flag.Bool("version", false, "print build identity and exit")
	flag.Var(&loads, "load", "preload a graph: name=graph.json (repeatable)")
	flag.Var(&rules, "rules", "preregister rules: name=rules.ged (repeatable)")
	flag.Parse()

	if *version {
		v := serve.VersionInfo()
		fmt.Printf("gedserve %s %s %s", v.Module, v.Version, v.Go)
		if v.Revision != "" {
			fmt.Printf(" (%s%s)", v.Revision, map[bool]string{true: "-dirty"}[v.Dirty])
		}
		fmt.Println()
		return
	}
	if *dataDir != "" && *follow != "" {
		fatal(fmt.Errorf("-data and -follow are mutually exclusive"))
	}
	cfg := serve.Config{
		Workers:         *workers,
		ChaseDepth:      *chaseDepth,
		FlushOps:        *flushOps,
		MaxDelay:        *maxDelay,
		MaxQueueOps:     *maxQueue,
		MaxInFlight:     *maxInFlight,
		RequestTimeout:  *reqTimeout,
		DataDir:         *dataDir,
		Fsync:           *fsync,
		CheckpointEvery: *ckptEvery,
		RescanInterval:  *rescan,
		SlowOp:          *slowOp,
	}
	if *epoch >= 0 {
		if *dataDir == "" {
			fatal(fmt.Errorf("-epoch needs -data (epochs fence the persist layer)"))
		}
		e := uint64(*epoch)
		cfg.AssumeEpoch = &e
	}
	if *slowOp > 0 {
		cfg.OnSlowOp = func(sd *serve.SpanData) {
			fmt.Fprintf(os.Stderr, "gedserve: slow op: graph=%s op=%s dur=%s stages=%v err=%q\n",
				sd.Graph, sd.Op, sd.Dur, sd.Stages, sd.Err)
		}
	}
	if *follow != "" {
		cfg.DataDir = *follow
	}
	if *faultSpec != "" {
		if cfg.DataDir == "" {
			fatal(fmt.Errorf("-fault needs -data (faults act on the persist layer)"))
		}
		rules, err := fault.Parse(*faultSpec)
		if err != nil {
			fatal(fmt.Errorf("-fault: %w", err))
		}
		ffs := fault.New(*faultSeed, nil)
		ffs.Inject(rules...)
		cfg.FS = ffs
		fmt.Printf("gedserve: fault injection armed: %s\n", *faultSpec)
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		fatal(err)
	}

	switch {
	case *follow != "":
		if err := srv.Follow(context.Background()); err != nil {
			fatal(err)
		}
		fmt.Printf("gedserve: following %s (read-only replica; POST /promote to take over)\n", *follow)
	case *dataDir != "":
		names, err := srv.Restore(context.Background())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("gedserve: restored %d graph(s) from %s\n", len(names), *dataDir)
	}

	for _, spec := range loads {
		name, path, _ := strings.Cut(spec, "=")
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		ent, err := srv.Catalog().Create(name, data)
		if errors.Is(err, serve.ErrExists) {
			// Rebooting with both -data and -load: the durable copy
			// (which includes every write since the original load) wins.
			fmt.Printf("gedserve: %s already restored from %s; skipping -load\n", name, *dataDir)
			continue
		}
		if err != nil {
			fatal(err)
		}
		v := ent.CurrentView()
		fmt.Printf("gedserve: loaded %s (%d nodes, %d edges)\n", name, v.Snap.NumNodes(), v.Snap.NumEdges())
	}
	for _, spec := range rules {
		name, path, _ := strings.Cut(spec, "=")
		src, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		ent, err := srv.Catalog().Get(name)
		if err != nil {
			fatal(fmt.Errorf("-rules %s: %w (use -load first)", name, err))
		}
		view, err := ent.RegisterRules(context.Background(), string(src))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("gedserve: %s: %d rules, %d violations\n", name, len(view.Rules), len(view.Violations))
	}

	handler := srv.Handler()
	if *pprofOn {
		// Debug endpoints ride next to the API, bypassing its admission
		// control: a profile of an overloaded server is exactly when you
		// want them reachable. Guarded by the flag so production
		// deployments opt in explicitly.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		fmt.Printf("gedserve: pprof enabled at %s/debug/pprof/\n", *addr)
	}

	hs := &http.Server{Addr: *addr, Handler: handler}
	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()
	fmt.Printf("gedserve: serving on %s\n", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		fatal(err)
	case s := <-sig:
		fmt.Printf("gedserve: %v, draining\n", s)
	}

	// Graceful shutdown: stop accepting, finish in-flight requests,
	// then flush every graph's pending writes.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "gedserve: shutdown:", err)
	}
	srv.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gedserve:", err)
	os.Exit(1)
}
