// Command gedbench regenerates the paper's evaluation artifacts:
//
//	gedbench -experiment table1            # Table 1 decision matrix
//	gedbench -experiment table1 -full      # include the slowest instances
//	gedbench -experiment scaling           # Section 5.3 tractable case + O(1) row
//	gedbench -experiment validate          # snapshot vs map storage comparison
//	gedbench -experiment match             # probe vs worst-case-optimal enumeration
//	gedbench -experiment incremental       # Engine.Apply vs full re-validation
//	gedbench -experiment chase             # delta-maintained vs refreeze chase
//	gedbench -experiment serve             # serving-subsystem load (64 clients, 90/10)
//	gedbench -experiment durability        # WAL recovery scaling, follower staleness, fsync cost
//	gedbench -experiment shard             # sharded vs monolithic validation scaling
//	gedbench -experiment chaos             # fault-injection soak: degraded mode + crash recovery
//	gedbench -experiment failover          # leader kill-9 / live-depose soak: promotion RTO, epoch fencing
//	gedbench -experiment obs               # observer on-vs-off serving overhead (<= 5% gate)
//	gedbench -experiment all
//
// Unknown -experiment values are rejected up front with the list of
// known experiments.
//
// With -json, each experiment additionally writes a machine-readable
// BENCH_<experiment>.json file to the current directory, feeding the
// repository's performance trajectory. -quick shrinks the incremental
// and chase series to one iteration on a small instance, which is what
// the CI smoke job runs.
//
// These experiments and their BENCH_*.json files are frozen legacy; the
// maintained workloads, and what each measures of the paper's claims,
// are in benchmark/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"gedlib/bench"
)

var emitJSON bool

// runOpts carries the shared experiment flags.
type runOpts struct {
	full, quick bool
}

// registry names every known experiment, in `all` execution order, and
// binds each name to its runner. The `all` list, the usage text and the
// up-front validation all derive from it, so adding an experiment is a
// one-line change (a unit test keeps the package doc comment honest).
var registry = []struct {
	name string
	run  func(runOpts)
}{
	{"table1", func(o runOpts) { table1(o.full) }},
	{"scaling", func(o runOpts) { scaling() }},
	{"validate", func(o runOpts) { validate() }},
	{"match", func(o runOpts) { matchExperiment(o.quick) }},
	{"incremental", func(o runOpts) { incremental(o.quick) }},
	{"chase", func(o runOpts) { chaseExperiment(o.quick) }},
	{"serve", func(o runOpts) { serveExperiment(o.quick) }},
	{"durability", func(o runOpts) { durabilityExperiment(o.quick) }},
	{"shard", func(o runOpts) { shardExperiment(o.quick) }},
	{"chaos", func(o runOpts) { chaosExperiment(o.quick) }},
	{"failover", func(o runOpts) { failoverExperiment(o.quick) }},
	{"obs", func(o runOpts) { obsExperiment(o.quick) }},
}

// experimentNames returns the registry's names in `all` order.
func experimentNames() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

func main() {
	experiments := experimentNames()
	experiment := flag.String("experiment", "table1",
		"experiment to run: "+strings.Join(experiments, " | ")+" | all")
	full := flag.Bool("full", false, "include the slowest instances (Grötzsch graph)")
	quick := flag.Bool("quick", false, "one iteration on small instances (CI smoke)")
	flag.BoolVar(&emitJSON, "json", false, "also write BENCH_<experiment>.json files")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: gedbench [flags]\n\nknown experiments: %s, all\n\nflags:\n",
			strings.Join(experiments, ", "))
		flag.PrintDefaults()
	}
	flag.Parse()

	// Validate up front so a typo fails loudly before any experiment
	// burns minutes of work.
	if *experiment != "all" && !slices.Contains(experiments, *experiment) {
		fmt.Fprintf(os.Stderr, "gedbench: unknown experiment %q (known: %s, all)\n",
			*experiment, strings.Join(experiments, ", "))
		flag.Usage()
		os.Exit(2)
	}

	opts := runOpts{full: *full, quick: *quick}
	first := true
	for _, e := range registry {
		if *experiment != "all" && e.name != *experiment {
			continue
		}
		if !first {
			fmt.Println()
		}
		first = false
		e.run(opts)
	}
}

// writeJSON persists one experiment's results as BENCH_<name>.json.
func writeJSON(name string, v any) {
	if !emitJSON {
		return
	}
	path := "BENCH_" + name + ".json"
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gedbench: marshal", path+":", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "gedbench:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", path)
}

func table1(full bool) {
	fmt.Println("Table 1 reproduction — decision procedures vs ground truth")
	fmt.Println("(expected column: brute-force 3-coloring / planted workload truth)")
	fmt.Println()
	rep := bench.Table1(!full)
	rep.Write(os.Stdout)
	ok, total := rep.Correct()
	writeJSON("table1", struct {
		Rows    []bench.Row `json:"rows"`
		Correct int         `json:"correct"`
		Total   int         `json:"total"`
	}{rep.Rows, ok, total})
	if ok != total {
		os.Exit(1)
	}
}

func scaling() {
	fmt.Println("Section 5.3: validation with bounded-size patterns is PTIME")
	pts := bench.BoundedPatternValidation([]int{100, 200, 400, 800})
	bench.WriteScaling(os.Stdout, "bounded-pattern validation (time ~ linear in |G|):", pts)
	fmt.Println()
	fmt.Println("Theorem 3: GFDx satisfiability is O(1)")
	cpts := bench.GFDxSatConstant([]int{4, 8, 16, 32, 64})
	bench.WriteScaling(os.Stdout, "GFDx satisfiability (time flat as |Σ| grows):", cpts)
	writeJSON("scaling", struct {
		BoundedPatternValidation []bench.ScalingPoint `json:"bounded_pattern_validation"`
		GFDxSatConstant          []bench.ScalingPoint `json:"gfdx_sat_constant"`
	}{pts, cpts})
}

func incremental(quick bool) {
	fmt.Println("Incremental validation: Engine.Apply (delta snapshot + violation store)")
	fmt.Println("vs full cached-snapshot Validate, per localized 10-node update")
	fmt.Println()
	scales, iters := []int{500, 1000, 2000}, 15
	if quick {
		scales, iters = []int{200}, 1
	}
	pts := bench.IncrementalValidation(scales, 10, iters)
	bench.WriteIncremental(os.Stdout, pts)
	writeJSON("incremental", struct {
		Points []bench.IncrementalPoint `json:"points"`
	}{pts})
}

func chaseExperiment(quick bool) {
	fmt.Println("Chase hosting: per-round coercion rebuild + freeze vs delta-maintained")
	fmt.Println("live coercion (same chase result; maintenance cost only)")
	fmt.Println()
	music, kb := []int{20, 40, 80}, []int{100, 200}
	if quick {
		music, kb = []int{10}, []int{50}
	}
	pts := bench.ChaseComparison(music, kb)
	bench.WriteChase(os.Stdout, pts)
	writeJSON("chase", struct {
		Points []bench.ChasePoint `json:"points"`
	}{pts})
}

func serveExperiment(quick bool) {
	fmt.Println("Serving subsystem: in-process gedserve under concurrent mixed load")
	fmt.Println("(real HTTP handlers, admission control, per-graph write coalescing)")
	fmt.Println()
	opts := bench.DefaultServeOptions()
	if quick {
		opts = bench.QuickServeOptions()
	}
	res := bench.ServeLoad(opts)
	bench.WriteServe(os.Stdout, res)
	writeJSON("serve", res)
	if !quick && res.AvgBatchOps <= 1 {
		fmt.Fprintln(os.Stderr, "gedbench: serve: write coalescing not visible (avg batch <= 1 op)")
		os.Exit(1)
	}
}

func durabilityExperiment(quick bool) {
	fmt.Println("Durability: recovery time vs WAL length (checkpoint + tail replay),")
	fmt.Println("follower staleness over a live log, and the serving-throughput cost")
	fmt.Println("of group-commit fsync")
	fmt.Println()
	opts := bench.DefaultDurabilityOptions()
	if quick {
		opts = bench.QuickDurabilityOptions()
	}
	res := bench.Durability(opts)
	bench.WriteDurability(os.Stdout, res)
	writeJSON("durability", res)
	if !quick {
		// Recovery must scale with |Δ since checkpoint|, not |history|:
		// a fresh checkpoint has to beat replaying the whole log by a
		// wide margin, and the WAL must not halve serving throughput.
		if res.ReplaySpeedup < 2 {
			fmt.Fprintf(os.Stderr, "gedbench: durability: fresh-checkpoint recovery only %.2fx faster than full-log replay\n", res.ReplaySpeedup)
			os.Exit(1)
		}
		if res.ThroughputRatio < 0.6 {
			fmt.Fprintf(os.Stderr, "gedbench: durability: durable throughput ratio %.2f below 0.6\n", res.ThroughputRatio)
			os.Exit(1)
		}
	}
}

func matchExperiment(quick bool) {
	fmt.Println("Match enumeration: scan-and-probe baseline vs worst-case-optimal")
	fmt.Println("sorted-run intersection + constant-literal pushdown (same match sets)")
	fmt.Println()
	pts := bench.MatchEnumeration(quick)
	bench.WriteMatch(os.Stdout, pts)
	dense := bench.MatchScenarioSpeedup(pts, "dense")
	selective := bench.MatchScenarioSpeedup(pts, "selective")
	writeJSON("match", struct {
		Points           []bench.MatchPoint `json:"points"`
		DenseSpeedup     float64            `json:"dense_speedup_median"`
		SelectiveSpeedup float64            `json:"selective_speedup_median"`
	}{pts, dense, selective})
	if !quick {
		if dense < 2 {
			fmt.Fprintf(os.Stderr, "gedbench: match: dense-scenario speedup %.2fx below 2x\n", dense)
			os.Exit(1)
		}
		if selective < 3 {
			fmt.Fprintf(os.Stderr, "gedbench: match: selective-scenario speedup %.2fx below 3x\n", selective)
			os.Exit(1)
		}
	}
}

func shardExperiment(quick bool) {
	fmt.Println("Sharded validation: partitioned snapshots + boundary-aware parallel")
	fmt.Println("frame search vs the monolithic engine (identical violation sets;")
	fmt.Println("the experiment measures a different schedule for the same answer)")
	fmt.Println()
	opts := bench.DefaultShardOptions()
	if quick {
		opts = bench.QuickShardOptions()
	}
	res := bench.ShardScaling(opts)
	bench.WriteShard(os.Stdout, res)
	writeJSON("shard", res)
	if !quick {
		// On partition-friendly rules with the greedy partitioner, every
		// point within the machine's core budget must reach 0.6·P.
		// Points past NumCPU measure scheduling overhead, not
		// parallelism, and are reported but not gated.
		for _, p := range res.Points {
			if p.RuleSet != "partition-friendly" || p.Partitioner != "greedy" {
				continue
			}
			if p.Shards < 2 || p.Shards > res.NumCPU {
				continue
			}
			if p.Efficiency < 0.6 {
				fmt.Fprintf(os.Stderr,
					"gedbench: shard: parallel efficiency %.2f at P=%d below 0.6\n",
					p.Efficiency, p.Shards)
				os.Exit(1)
			}
		}
	}
}

func chaosExperiment(quick bool) {
	fmt.Println("Chaos soak: concurrent serving on a fault-injecting filesystem")
	fmt.Println("(ENOSPC/EIO/torn-write windows; asserts acked writes survive crash")
	fmt.Println("recovery, degraded graphs heal, violation set matches a fresh engine)")
	fmt.Println()
	opts := bench.DefaultChaosOptions()
	if quick {
		opts = bench.QuickChaosOptions()
	}
	res := bench.ChaosSoak(opts)
	bench.WriteChaos(os.Stdout, res)
	writeJSON("chaos", res)
	if len(res.Failures) > 0 {
		fmt.Fprintf(os.Stderr, "gedbench: chaos: %d invariant failures\n", len(res.Failures))
		os.Exit(1)
	}
}

func failoverExperiment(quick bool) {
	fmt.Println("Failover soak: kill -9 and live-depose leader successions under")
	fmt.Println("concurrent writers (asserts zero acked-write loss across promotions,")
	fmt.Println("epoch-fenced deposed leaders — no split-brain — oracle-identical")
	fmt.Println("recovery, and fenced stale-epoch reboots; reports the RTO distribution)")
	fmt.Println()
	opts := bench.DefaultFailoverOptions()
	if quick {
		opts = bench.QuickFailoverOptions()
	}
	res := bench.FailoverSoak(opts)
	bench.WriteFailover(os.Stdout, res)
	writeJSON("failover", res)
	if len(res.Failures) > 0 {
		fmt.Fprintf(os.Stderr, "gedbench: failover: %d invariant failures\n", len(res.Failures))
		os.Exit(1)
	}
	if !quick && res.StaleAttempts > 0 && res.FencedRejections != res.StaleAttempts {
		fmt.Fprintf(os.Stderr, "gedbench: failover: only %d/%d stale-leader writes fenced\n",
			res.FencedRejections, res.StaleAttempts)
		os.Exit(1)
	}
}

func obsExperiment(quick bool) {
	fmt.Println("Observability overhead: the serving load with the pipeline observer")
	fmt.Println("on vs off (same catalog, same request streams; the delta is exactly")
	fmt.Println("the added stage histograms, engine/persist metrics and span ring)")
	fmt.Println()
	opts := bench.DefaultObsOptions()
	if quick {
		opts = bench.QuickObsOptions()
	}
	res := bench.ObsOverhead(opts)
	bench.WriteObs(os.Stdout, res)
	writeJSON("obs", res)
	if !quick && res.Overhead > 0.05 {
		fmt.Fprintf(os.Stderr, "gedbench: obs: observer overhead %.1f%% above the 5%% budget\n", 100*res.Overhead)
		os.Exit(1)
	}
}

func validate() {
	fmt.Println("Storage model: map-backed graph vs frozen CSR snapshot")
	fmt.Println("(same matcher, same rules, identical violation sets; cached = Engine steady state)")
	fmt.Println()
	pts := bench.CompareValidation([]int{200, 400, 800, 1600})
	bench.WriteComparison(os.Stdout, pts)
	writeJSON("validate", struct {
		Points []bench.ComparisonPoint `json:"points"`
	}{pts})
}
