package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"gedlib"
	"gedlib/persist"
	"gedlib/persist/fault"
	"gedlib/workload"
)

// The chaos and failover soaks. Both run concurrent soakWriters against
// durable catalogs on fault-injecting filesystems and end in the same
// verdict (soak.checkCrashCopy). Their schedules are driven by op
// count, not time: fault windows open and close, and leaders are killed
// or deposed, when the writers' shared attempt counter reaches
// thresholds drawn from the seed. Each soak runs once per seed as a
// subtest, so a failure names the seed that reproduces it.
const (
	soakGraphs  = 2   // tenant graphs per catalog
	soakScale   = 100 // knowledge-base scale of each tenant
	soakWriters = 4   // pinned round-robin to the graphs

	soakBackoff  = 2 * time.Millisecond // a writer's pause after a refused write
	soakWatchdog = 30 * time.Second     // cap on any single wait

	// A chaos seed runs chaosPasses shuffled passes over the fault menu;
	// each fault is preceded by a healed window of [chaosQuiet,
	// 2·chaosQuiet) attempted writes and stays injected for
	// [chaosActive, 2·chaosActive).
	chaosPasses = 2
	chaosQuiet  = 120
	chaosActive = 60

	// A failover seed runs failoverRounds successions, alternating kill
	// and live depose, [failoverWindow, 2·failoverWindow) attempted
	// writes apart.
	failoverRounds = 4
	failoverWindow = 60
)

func forEachSoakSeed(t *testing.T, run func(t *testing.T, seed int64)) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { run(t, seed) })
	}
}

// opClock is the soaks' only clock: writers tick it once per attempted
// write, and the controller blocks until a given count is reached.
type opClock struct {
	mu      sync.Mutex
	n       uint64
	target  uint64
	reached chan struct{} // closed when n reaches target; nil when nobody waits
}

func (c *opClock) tick() {
	c.mu.Lock()
	c.n++
	if c.reached != nil && c.n >= c.target {
		close(c.reached)
		c.reached = nil
	}
	c.mu.Unlock()
}

func (c *opClock) now() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// at returns a channel closed once target attempts have been made. One
// waiter at a time (the controller).
func (c *opClock) at(target uint64) <-chan struct{} {
	ch := make(chan struct{})
	c.mu.Lock()
	if c.n >= target {
		close(ch)
	} else {
		c.target, c.reached = target, ch
	}
	c.mu.Unlock()
	return ch
}

// soakWriter tracks one writer's acknowledged chain: a unique node per
// attempt, an edge to it from the writer's anchor, and the attempt
// number as a monotone attribute on the anchor. Acked attempts are
// recorded — exactly the writes checkCrashCopy demands back — and so
// are refused ones, answered with an error (a non-2xx status over
// HTTP), whose nodes must never become visible.
type soakWriter struct {
	id      int
	graph   string
	anchor  string
	acked   []int
	refused []int
}

func (w *soakWriter) node(attempt int) string { return fmt.Sprintf("w%d_n%d", w.id, attempt) }

// checkChain requires every acked link of the writer's chain in a
// recovered graph, and the anchor's attribute at least the last ack.
func (w *soakWriter) checkChain(t *testing.T, seed int64, g *gedlib.Graph, names *nameTable) {
	anchor, ok := names.Resolve(w.anchor)
	if !ok {
		t.Errorf("seed %d: %s: writer %d lost its anchor %s", seed, w.graph, w.id, w.anchor)
		return
	}
	lost := 0
	for _, a := range w.acked {
		if node, ok := names.Resolve(w.node(a)); !ok || !g.HasEdge(anchor, "soak", node) {
			lost++
		}
	}
	if lost > 0 {
		t.Errorf("seed %d: %s: writer %d lost %d/%d acked writes", seed, w.graph, w.id, lost, len(w.acked))
	}
	if n := len(w.acked); n > 0 {
		if v, ok := g.Attr(anchor, "soak"); !ok || int(v.Num()) < w.acked[n-1] {
			t.Errorf("seed %d: %s: writer %d anchor attribute regressed below acked attempt %d",
				seed, w.graph, w.id, w.acked[n-1])
		}
	}
}

// soakAcked is the soaks' one definition of an acknowledged write: the
// call returned no error and every op of the batch applied.
func soakAcked(res WriteResult, err error, ops []Op) bool {
	return err == nil && len(res.OpErrors) == 0 && res.Applied == len(ops)
}

// soak is the state one soak run shares between its controller (the
// test goroutine), its writers and the final checker.
type soak struct {
	t     *testing.T
	seed  int64
	ctx   context.Context
	dir   string   // the data directory every catalog of the run opens
	names []string // tenant graphs
	nodes []int    // initial node count per tenant (ids n0..n<count-1>)

	clock   opClock
	acked   atomic.Uint64
	leader  atomic.Pointer[Catalog] // where writers send the next attempt
	writers []*soakWriter
	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
}

func newSoak(t *testing.T, seed int64) *soak {
	return &soak{t: t, seed: seed, ctx: context.Background(), dir: t.TempDir(), stop: make(chan struct{})}
}

// open boots one more catalog over the shared data directory, on its
// own fault FS so it can be broken independently of the others. Close
// is deferred to test cleanup — after the crash copy — so a catalog the
// soak "kills" or deposes is abandoned un-Closed like the process it
// stands in for, yet no batcher, probe or tail goroutine outlives the
// test. (A partitioned catalog's Close fails its parting checkpoint;
// that is expected.)
func (s *soak) open(cfg Config) (*Catalog, *fault.FS) {
	s.t.Helper()
	ffs := fault.New(s.seed, nil)
	cfg.DataDir, cfg.FS, cfg.MaxDelay, cfg.CheckpointEvery = s.dir, ffs, time.Millisecond, 50
	cat, err := NewCatalog(cfg)
	if err != nil {
		s.t.Fatal(err)
	}
	s.t.Cleanup(cat.Close)
	return cat, ffs
}

// seedTenants creates the tenant graphs on cat — seeded knowledge bases
// under the paper's φ₁–φ₄ — and points the writers at it.
func (s *soak) seedTenants(cat *Catalog) {
	s.t.Helper()
	rules := gedlib.FormatRules(gedlib.RuleSet{
		workload.PaperPhi1(), workload.PaperPhi2(), workload.PaperPhi3(), workload.PaperPhi4(),
	})
	for i := 0; i < soakGraphs; i++ {
		g, _ := workload.KnowledgeBase(s.seed+int64(i), soakScale, 0.1)
		data, err := gedlib.MarshalGraph(g)
		if err != nil {
			s.t.Fatal(err)
		}
		name := fmt.Sprintf("tenant%d", i)
		ent, err := cat.Create(name, data)
		if err != nil {
			s.t.Fatal(err)
		}
		if _, err := ent.RegisterRules(s.ctx, rules); err != nil {
			s.t.Fatal(err)
		}
		s.names = append(s.names, name)
		s.nodes = append(s.nodes, g.NumNodes())
	}
	s.leader.Store(cat)
}

// startWriters launches the writers; they run until stopWriters (or
// test cleanup, should the controller bail out first).
func (s *soak) startWriters() {
	for id := 0; id < soakWriters; id++ {
		w := &soakWriter{id: id, graph: s.names[id%soakGraphs]}
		s.writers = append(s.writers, w)
		s.wg.Add(1)
		go s.write(w)
	}
	s.t.Cleanup(s.stopWriters)
}

func (s *soak) stopWriters() {
	s.stopped.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// write is one writer's loop. An attempt that races a fault, a crash or
// a fence is simply unacked and the next one goes to whichever catalog
// leads by then; node ids are never reused, so a refused attempt's node
// names exactly that attempt. Every
// attempt is followed by a read, which must be served whatever the
// graph's health.
func (s *soak) write(w *soakWriter) {
	defer s.wg.Done()
	rng := rand.New(rand.NewSource(s.seed*1000 + int64(w.id)))
	for attempt := 0; ; attempt++ {
		select {
		case <-s.stop:
			return
		default:
		}
		node := w.node(attempt)
		ops := []Op{{Op: "add_node", ID: node, Label: "person"}}
		if w.anchor != "" {
			ops = append(ops,
				Op{Op: "add_edge", Src: w.anchor, Label: "soak", Dst: node},
				Op{Op: "set_attr", ID: w.anchor, Attr: "soak", Value: float64(attempt)},
				Op{Op: "set_attr", ID: fmt.Sprintf("n%d", rng.Intn(s.nodes[w.id%soakGraphs])),
					Attr: "type", Value: "programmer"})
		}
		s.clock.tick()
		ent, err := s.leader.Load().Get(w.graph)
		if err != nil {
			s.t.Errorf("seed %d: writer %d: %v", s.seed, w.id, err)
			return
		}
		res, err := ent.Mutate(s.ctx, ops)
		if err != nil {
			w.refused = append(w.refused, attempt)
		}
		switch {
		case !soakAcked(res, err, ops):
			time.Sleep(soakBackoff)
		case w.anchor == "":
			w.anchor = node
		default:
			w.acked = append(w.acked, attempt)
			s.acked.Add(1)
		}
		if view := ent.CurrentView(); view == nil || view.Snap == nil {
			s.t.Errorf("seed %d: %s served a nil view", s.seed, w.graph)
		}
	}
}

// await blocks the controller until the writers have made n attempts in
// total.
func (s *soak) await(n uint64) {
	s.t.Helper()
	select {
	case <-s.clock.at(n):
	case <-time.After(soakWatchdog):
		s.t.Fatalf("seed %d: watchdog: stuck at %d attempted / %d acked writes after %s, waiting for %d",
			s.seed, s.clock.now(), s.acked.Load(), soakWatchdog, n)
	}
}

// checkCrashCopy is the verdict both soaks end in. It copies the data
// directory as it stands — leader still open, no parting checkpoint —
// and requires of the copy: persist recovers every tenant at exactly
// the leader's version; every acked link of every writer's chain is
// there, with the anchor's attribute at least the last ack; none of the
// forbidden nodes (writes refused with an error) are; and a catalog
// restored from it serves exactly the violations a fresh engine finds
// on the recovered graph.
func (s *soak) checkCrashCopy(leader *Catalog, forbidden []string) {
	t := s.t
	crash := t.TempDir()
	copyTree(t, s.dir, crash)
	store, err := persist.Open(crash, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recovered := make(map[string]persist.State, len(s.names))
	for _, name := range s.names {
		rec, err := store.Recover(name)
		if err != nil {
			t.Errorf("seed %d: %s: crash recovery: %v", s.seed, name, err)
			continue
		}
		st := rec.State
		recovered[name] = st
		if ent, err := leader.Get(name); err != nil {
			t.Errorf("seed %d: %s: leader: %v", s.seed, name, err)
		} else if got, want := st.Graph.Version(), ent.CurrentView().Version; got != want {
			t.Errorf("seed %d: %s: recovered version %d != leader version %d", s.seed, name, got, want)
		}
		names := nameIndexFromDense(st.Names).table(st.Graph.NumNodes())
		for _, node := range forbidden {
			if _, ok := names.Resolve(node); ok {
				t.Errorf("seed %d: %s: refused write %s leaked into the recovered state", s.seed, name, node)
			}
		}
		for _, w := range s.writers {
			if w.graph == name && w.anchor != "" {
				w.checkChain(t, s.seed, st.Graph, names)
			}
		}
	}

	restored, err := NewCatalog(Config{DataDir: crash})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restored.Close)
	if _, err := restored.Restore(s.ctx); err != nil {
		t.Errorf("seed %d: restore crash copy: %v", s.seed, err)
		return
	}
	for name, st := range recovered {
		sigma, err := gedlib.ParseRules(st.Rules)
		if err != nil {
			t.Errorf("seed %d: %s: recovered rules: %v", s.seed, name, err)
			continue
		}
		want, err := gedlib.New().Validate(s.ctx, st.Graph, sigma)
		if err != nil {
			t.Errorf("seed %d: %s: oracle validate: %v", s.seed, name, err)
			continue
		}
		ent, err := restored.Get(name)
		if err != nil {
			t.Errorf("seed %d: %s: restored: %v", s.seed, name, err)
			continue
		}
		got := ent.CurrentView().Violations
		if !slices.Equal(canonViolations(got), canonViolations(want)) {
			t.Errorf("seed %d: %s: restored violations diverge from a fresh engine's (%d vs %d)",
				s.seed, name, len(got), len(want))
		}
	}
}

// TestChaosSoak asserts the failure-model contract end to end: under
// ENOSPC, EIO and torn-write windows on the WAL and the checkpoint temp
// files, nothing panics, reads never stop, every degraded graph heals
// once the disk does, and every acked write survives a crash.
func TestChaosSoak(t *testing.T) {
	forEachSoakSeed(t, func(t *testing.T, seed int64) {
		s := newSoak(t, seed)
		cat, ffs := s.open(Config{ProbeInterval: 10 * time.Millisecond})
		s.seedTenants(cat)
		s.startWriters()

		rng := rand.New(rand.NewSource(seed + 99))
		menu := []func() fault.Rule{
			func() fault.Rule {
				return fault.Rule{Kind: "enospc-wal", Op: fault.OpWrite, Path: "wal-",
					Err: syscall.ENOSPC, AfterBytes: 512 + int64(rng.Intn(1536))}
			},
			func() fault.Rule {
				return fault.Rule{Kind: "eio-sync", Op: fault.OpSync, Path: "wal-",
					Err: syscall.EIO, Kth: 1 + rng.Intn(3)}
			},
			func() fault.Rule {
				return fault.Rule{Kind: "torn", Op: fault.OpWrite, Path: "wal-", Err: syscall.EIO}
			},
			func() fault.Rule {
				return fault.Rule{Kind: "enospc-ckpt", Op: fault.OpWrite, Path: ".tmp-ckpt-",
					Err: syscall.ENOSPC, AfterBytes: 1024}
			},
		}
		var at uint64
		for pass := 0; pass < chaosPasses; pass++ {
			for _, i := range rng.Perm(len(menu)) {
				at += uint64(chaosQuiet + rng.Intn(chaosQuiet))
				s.await(at)
				ffs.Inject(menu[i]())
				at += uint64(chaosActive + rng.Intn(chaosActive))
				s.await(at)
				ffs.Heal()
			}
		}
		s.stopWriters()

		var recoveries uint64
		for _, name := range s.names {
			ent, err := cat.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(soakWatchdog)
			for h, cause := ent.Health(); h != "ok"; h, cause = ent.Health() {
				if time.Now().After(deadline) {
					t.Errorf("seed %d: %s: still %s after the disk healed: %v", seed, name, h, cause)
					break
				}
				time.Sleep(soakBackoff)
			}
			recoveries += ent.Stats().Recoveries
		}
		// Non-vacuity: writes were acked, every fault of the menu actually
		// fired (Injected is keyed by Rule.Kind), and graphs recovered.
		fired := ffs.Injected()
		if s.acked.Load() == 0 || len(fired) != len(menu) || recoveries == 0 {
			t.Errorf("seed %d: vacuous soak: %d acked writes, faults fired %v (want all %d of the menu), %d recoveries",
				seed, s.acked.Load(), fired, len(menu), recoveries)
		}
		t.Logf("seed %d: %d attempted, %d acked, faults fired %v, %d recoveries",
			seed, s.clock.now(), s.acked.Load(), fired, recoveries)
		// A refused write is never visible: not in the leader's views,
		// not after a crash.
		var refused []string
		for _, w := range s.writers {
			ent, err := cat.Get(w.graph)
			if err != nil {
				t.Fatal(err)
			}
			view := ent.CurrentView()
			for _, a := range w.refused {
				refused = append(refused, w.node(a))
				if _, ok := view.Names.Resolve(w.node(a)); ok {
					t.Errorf("seed %d: %s: refused write %s is visible", seed, w.graph, w.node(a))
				}
			}
		}
		if len(refused) == 0 {
			t.Errorf("seed %d: vacuous soak: no write was refused", seed)
		}
		s.checkCrashCopy(cat, refused)
	})
}

// TestFailoverSoak asserts the failover contract end to end: a leader
// and a warm follower share the data directory while writers hammer
// the leader; each round either kills the leader (a total storage
// partition that never heals — the in-process kill -9) or deposes it
// live with healthy disks, promotes the follower and boots the next
// one. No acked write may be lost across any promotion, a deposed
// leader may never ack again, and a reboot at the original epoch must
// come up fenced.
func TestFailoverSoak(t *testing.T) {
	forEachSoakSeed(t, func(t *testing.T, seed int64) {
		s := newSoak(t, seed)
		cfg := Config{
			FollowPoll:     2 * time.Millisecond,
			RescanInterval: 50 * time.Millisecond,
			ProbeInterval:  20 * time.Millisecond,
		}
		leader, leaderFS := s.open(cfg)
		s.seedTenants(leader)
		follower, followerFS := s.open(cfg)
		if err := follower.Follow(s.ctx); err != nil {
			t.Fatal(err)
		}
		s.startWriters()

		partition, err := fault.Parse("partition")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed + 99))
		var (
			at                     uint64
			kills, deposes, epochs int
			staleNodes             []string
			fenced                 int
		)
		for round := 0; round < failoverRounds; round++ {
			at += uint64(failoverWindow + rng.Intn(failoverWindow))
			s.await(at)
			kill := (round+int(seed))%2 == 0
			if kill {
				kills++
				leaderFS.Inject(partition...)
			} else {
				deposes++
			}
			pres, err := follower.Promote(s.ctx)
			if err != nil {
				t.Errorf("seed %d: round %d: promote: %v", seed, round, err)
				break
			}
			epochs++
			if len(pres.Promoted) != soakGraphs {
				t.Errorf("seed %d: round %d: promoted %v, want %d graphs", seed, round, pres.Promoted, soakGraphs)
			}
			deposed := s.leader.Swap(follower)

			if !kill {
				// Split-brain probe: the deposed leader is alive with
				// healthy disks and does not know it lost. A write to it
				// must die on the epoch fence — not be acked, not reach
				// the log. (A fresh node id, so the op survives in-memory
				// application and the flush actually consults the fence.)
				for g, name := range s.names {
					ent, err := deposed.Get(name)
					if err != nil {
						t.Errorf("seed %d: round %d: deposed %s: %v", seed, round, name, err)
						continue
					}
					ops := []Op{{Op: "add_node", ID: fmt.Sprintf("stale_r%dg%d", round, g), Label: "person"}}
					staleNodes = append(staleNodes, ops[0].ID)
					res, err := ent.Mutate(s.ctx, ops)
					switch {
					case soakAcked(res, err, ops):
						t.Errorf("seed %d: round %d: SPLIT BRAIN: deposed leader acked %s on %s", seed, round, ops[0].ID, name)
					case errors.Is(err, ErrFenced):
						fenced++
					default:
						t.Errorf("seed %d: round %d: deposed write on %s refused as %v, want ErrFenced", seed, round, name, err)
					}
				}
			}

			leaderFS = followerFS
			follower, followerFS = s.open(cfg)
			if err := follower.Follow(s.ctx); err != nil {
				t.Fatal(err)
			}
		}
		s.stopWriters()

		if s.acked.Load() == 0 || kills == 0 || deposes == 0 || fenced != len(staleNodes) {
			t.Errorf("seed %d: vacuous soak: %d acked writes, %d kill and %d depose rounds, %d/%d stale writes fenced",
				seed, s.acked.Load(), kills, deposes, fenced, len(staleNodes))
		}
		t.Logf("seed %d: %d attempted, %d acked, %d kill + %d depose rounds, %d stale writes fenced",
			seed, s.clock.now(), s.acked.Load(), kills, deposes, fenced)

		final := s.leader.Load()
		for _, name := range s.names {
			ent, err := final.Get(name)
			if err != nil {
				t.Errorf("seed %d: final leader: %v", seed, err)
				continue
			}
			if h, cause := ent.Health(); h != "ok" {
				t.Errorf("seed %d: %s: final leader is %s: %v", seed, name, h, cause)
			}
			if e := ent.Stats().LeaderEpoch; e != uint64(epochs) {
				t.Errorf("seed %d: %s: final epoch %d, want %d (one bump per promotion)", seed, name, e, epochs)
			}
		}
		s.checkCrashCopy(final, staleNodes)

		// Stale reboot: the original leader's binary comes back believing
		// epoch 0. On its own copy of the directory it must come up
		// fenced read-only: reads serve, writes die on the fence.
		stale := t.TempDir()
		copyTree(t, s.dir, stale)
		zero := uint64(0)
		zombie, err := NewCatalog(Config{DataDir: stale, AssumeEpoch: &zero, ProbeInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(zombie.Close)
		if _, err := zombie.Restore(s.ctx); err != nil {
			t.Fatalf("seed %d: stale reboot: %v", seed, err)
		}
		for _, name := range s.names {
			ent, err := zombie.Get(name)
			if err != nil {
				t.Errorf("seed %d: stale reboot: %v", seed, err)
				continue
			}
			if h, _ := ent.Health(); h != "fenced" {
				t.Errorf("seed %d: %s: stale-epoch reboot came up %q, want fenced", seed, name, h)
			}
			if view := ent.CurrentView(); view == nil || view.Snap == nil {
				t.Errorf("seed %d: %s: stale reboot serves no view", seed, name)
			}
			_, err = ent.Mutate(s.ctx, []Op{{Op: "add_node", ID: "zombie", Label: "person"}})
			if !errors.Is(err, ErrFenced) {
				t.Errorf("seed %d: %s: stale reboot write returned %v, want ErrFenced", seed, name, err)
			}
		}
	})
}
