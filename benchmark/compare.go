package main

import (
	"errors"
	"fmt"
	"io"
)

// compareFiles judges new against old, each a set of documents of the
// same code (one per run; ten alternating pairs make a verdict worth
// having). Per workload and end-to-end metric it prints the change of
// the median against the metric's bound:
//
//	regression  the median worsened by more than the bound
//	unresolved  the run-to-run spread of either side is wider than the
//	            bound, so neither verdict can be read off the medians
//	            (unless every new run beats every old run)
//	unchanged   otherwise
//
// Documents of another machine, seed or input set do not compare.
func compareFiles(w io.Writer, oldFiles, newFiles []string) error {
	olds, err := readDocuments(oldFiles)
	if err != nil {
		return err
	}
	news, err := readDocuments(newFiles)
	if err != nil {
		return err
	}
	ref := olds[0]
	for _, d := range append(olds[1:], news...) {
		a, b := ref.Env, d.Env
		a.Commit, b.Commit = "", "" // the one field that is meant to differ
		if a != b || d.Quick != ref.Quick {
			return fmt.Errorf("documents differ in env: %+v vs %+v", ref.Env, d.Env)
		}
		for name, wd := range d.Workloads {
			if rw := ref.Workloads[name]; rw != nil && rw.Fingerprint != wd.Fingerprint {
				return fmt.Errorf("documents differ in the inputs of %s: %s vs %s", name, rw.Fingerprint, wd.Fingerprint)
			}
		}
	}
	regressions := 0
	for _, def := range workloads {
		for _, m := range endToEnd {
			o, n := values(olds, def.Name, m.Name), values(news, def.Name, m.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			verdict, worse := judge(m, o, n)
			if verdict == "regression" {
				regressions++
			}
			fmt.Fprintf(w, "%-18s %-16s old %12.4f  new %12.4f %-5s  worse by %+7.2f%% (bound %4.1f%%)  spread %5.1f%%/%5.1f%%  %s\n",
				def.Name, m.Name, median(o), median(n), m.Unit, 100*worse, 100*m.Bound,
				100*quartileSpread(o), 100*quartileSpread(n), verdict)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressions", regressions)
	}
	return nil
}

// judge returns the verdict for one metric and how much worse the new
// median is than the old, as a share of the old (negative: better).
func judge(m metric, old, new []float64) (verdict string, worse float64) {
	mo, mn := median(old), median(new)
	switch {
	case mo == 0 && mn == 0:
		worse = 0
	case mo == 0:
		worse = 1 // from nothing to something, e.g. failed_frac
	case m.Better == "higher":
		worse = (mo - mn) / mo
	default:
		worse = (mn - mo) / mo
	}
	noisy := quartileSpread(old) > m.Bound || quartileSpread(new) > m.Bound
	switch {
	case noisy && m.Bound > 0 && !allBetter(m, old, new):
		return "unresolved", worse
	case worse > m.Bound:
		return "regression", worse
	}
	return "unchanged", worse
}

// allBetter reports whether every new run reads better than every old.
func allBetter(m metric, old, new []float64) bool {
	so, sn := sorted(old), sorted(new)
	if m.Better == "higher" {
		return sn[0] > so[len(so)-1]
	}
	return sn[len(sn)-1] < so[0]
}

func readDocuments(files []string) ([]*document, error) {
	var out []*document
	for _, f := range files {
		d := &document{}
		if err := readJSON(f, d); err != nil {
			return nil, err
		}
		if len(d.Workloads) == 0 {
			return nil, fmt.Errorf("%s: not a benchmark document", f)
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, errors.New("no documents")
	}
	return out, nil
}

// values collects one metric of one workload across documents.
func values(docs []*document, workload, name string) []float64 {
	var out []float64
	for _, d := range docs {
		if wd := d.Workloads[workload]; wd != nil {
			if v, ok := wd.EndToEnd[name]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}
