// Command benchmark is the repository's benchmark: five named
// workloads, 13 end-to-end and 70 per-layer metrics, measured from
// outside through the public packages only. See README.md.
//
//	go run . -workload NAME -seed N -seconds S -trace 0|1   one run, one result line (the driver's form)
//	go run . [-seed N] [-out file] [-trace-out dir]          every workload, untraced then traced, one document
//	go run . -compare old.json[,old2.json...] new.json[,...] verdict per workload and end-to-end metric
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

func main() {
	workload := flag.String("workload", "all", "workload to run: all, or one of the five names")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 15, "length of the measured phase of a run (BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	out := flag.String("out", "", "write the result (one run) or the document (all) to this file")
	traceOut := flag.String("trace-out", "", "write the traced runs' spans to this directory")
	quick := flag.Bool("quick", false, "tiny inputs and op counts, for tests only")
	compare := flag.Bool("compare", false, "compare two sets of documents: -compare old.json new.json")
	flag.Parse()

	// Pinned so that a larger machine does not change what is measured;
	// recorded in the document's env.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("usage: -compare old.json[,more...] new.json[,more...]")
		} else {
			err = compareFiles(os.Stdout, strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ","))
		}
	case *workload == "all":
		err = runAll(*seed, *seconds, *quick, *out, *traceOut)
	default:
		err = runOne(*workload, *seed, *seconds, *trace == 1, *quick, *out, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// checkoutRoot is the nearest directory at or above the working
// directory that holds BENCHMARK.json. Scratch files go under its
// .bench_build, which .gitignore names, and nowhere else.
func checkoutRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json at or above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// scratchDir makes a fresh directory under the checkout's .bench_build.
func scratchDir(prefix string) (root, dir string, err error) {
	if root, err = checkoutRoot(); err != nil {
		return "", "", err
	}
	build := filepath.Join(root, ".bench_build")
	if err = os.MkdirAll(build, 0o755); err != nil {
		return "", "", err
	}
	dir, err = os.MkdirTemp(build, prefix)
	return root, dir, err
}

// execute runs one workload in one mode in this process.
func execute(name string, seed int64, seconds float64, traced, quick bool, traceOut string) (*result, error) {
	def := workloadNamed(name)
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	_, tmp, err := scratchDir("run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	r := &run{ctx: context.Background(), def: def, seed: seed, seconds: seconds, traced: traced, quick: quick,
		tmp: tmp, tr: newTracer(),
		res: result{Workload: name, Traced: traced, Quick: quick, Seed: seed,
			Metrics: map[string]float64{}, Samples: map[string]int{}}}
	r.tr.enable(traced)
	if err := def.run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if traced && traceOut != "" {
		if err := os.MkdirAll(traceOut, 0o755); err != nil {
			return nil, err
		}
		if err := writeSpans(filepath.Join(traceOut, name+".spans.jsonl"), r.tr.finished()); err != nil {
			return nil, err
		}
	}
	return &r.res, nil
}

// reported lists the metrics a run of this workload and mode owes, with
// those it did not produce (a layer that did no work) reading 0.
func reported(res *result) []metric {
	if res.Traced {
		return perLayer
	}
	return endToEnd
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is the driver's form: one run, a table, one result line.
func runOne(name string, seed int64, seconds float64, traced, quick bool, out, traceOut string) error {
	res, err := execute(name, seed, seconds, traced, quick, traceOut)
	if err != nil {
		return err
	}
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			return err
		}
	}
	printTable(name, res)
	line := resultLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]metricValue{}}
	for _, m := range reported(res) {
		if res.Traced || m.inContract() {
			v, ok := res.Metrics[m.Name]
			if !ok && !res.Traced && !quick {
				return fmt.Errorf("%s: too few samples to report %s", name, m.Name)
			}
			line.Metrics[m.Name] = metricValue{v, m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	for _, g := range res.Gates {
		fmt.Fprintln(os.Stderr, "gate failed:", g)
	}
	if !res.correct() {
		return fmt.Errorf("%s: %d of %d ops failed, %d gates failed", name, res.Failed, res.Attempted, len(res.Gates))
	}
	return nil
}

func printTable(name string, res *result) {
	mode := "end to end, spans off"
	if res.Traced {
		mode = "per layer, traced"
	}
	fmt.Printf("%s (%s, seed %d, inputs %s)\n", name, mode, res.Seed, res.Fingerprint)
	for _, m := range reported(res) {
		if v, ok := res.Metrics[m.Name]; ok {
			fmt.Printf("  %-34s %-6s %14.4f  n=%d\n", m.Name, m.Unit, v, res.Samples[m.Name])
		}
	}
}

// ---- the full document ----

type document struct {
	Env       env                     `json:"env"`
	Quick     bool                    `json:"quick,omitempty"`
	Workloads map[string]*workloadDoc `json:"workloads"`
}

type env struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	DataDirFS  string  `json:"data_dir_fs"`
}

type workloadDoc struct {
	EndToEnd    map[string]float64 `json:"e2e"`
	Layers      map[string]float64 `json:"layers"`
	Samples     map[string]int     `json:"samples"`
	Fingerprint string             `json:"input_fingerprint"`
}

// runAll runs every workload untraced and then traced, each in a child
// process of this binary so that workload order changes no number, and
// assembles the document.
func runAll(seed int64, seconds float64, quick bool, out, traceOut string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	root, tmp, err := scratchDir("all-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	doc := document{Env: readEnv(root, seed, seconds), Quick: quick, Workloads: map[string]*workloadDoc{}}
	failed := false
	for _, def := range workloads {
		wd := &workloadDoc{EndToEnd: map[string]float64{}, Layers: map[string]float64{}, Samples: map[string]int{}}
		doc.Workloads[def.Name] = wd
		for _, traced := range []bool{false, true} {
			file := filepath.Join(tmp, "result.json")
			args := []string{"-workload", def.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-out", file}
			if traced {
				args = append(args, "-trace", "1")
				if traceOut != "" {
					args = append(args, "-trace-out", traceOut)
				}
			}
			if quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = true
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					return err
				}
			}
			var res result
			if err := readJSON(file, &res); err != nil {
				return fmt.Errorf("%s: no result: %w", def.Name, err)
			}
			os.Remove(file)
			wd.Fingerprint = res.Fingerprint
			target := wd.EndToEnd
			if traced {
				target = wd.Layers
			}
			for _, m := range reported(&res) {
				if v, ok := res.Metrics[m.Name]; ok && m.on(def.Name) {
					target[m.Name], wd.Samples[m.Name] = v, res.Samples[m.Name]
				}
			}
		}
	}
	if out != "" {
		if err := writeJSON(out, doc); err != nil {
			return err
		}
	}
	if failed {
		return errors.New("a correctness gate failed")
	}
	return nil
}

func readEnv(root string, seed int64, seconds float64) env {
	e := env{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", Commit: "unknown", Seed: seed, Seconds: seconds, DataDirFS: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	var st syscall.Statfs_t
	if syscall.Statfs(root, &st) == nil {
		e.DataDirFS = fmt.Sprintf("0x%x", st.Type)
	}
	return e
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
