// Command gedcheck runs the GED analyses from the command line:
//
//	gedcheck validate -graph g.json -rules deps.ged     # find violations
//	gedcheck sat      -rules deps.ged                   # satisfiability + witness or conflict
//	gedcheck implies  -rules deps.ged -target name      # Σ\{φ} ⊨ φ? + counterexample
//	gedcheck prove    -rules deps.ged -target name      # A_GED proof of the implication
//	gedcheck chase    -graph g.json -rules deps.ged     # chase a graph, print the quotient
//	gedcheck discover -graph g.json                     # mine GFDs from a graph
//
// validate, sat and implies take GEDs, GDCs and GED∨s alike; prove and
// chase take GEDs only. sat and implies print the search's statistics
// (chases, case-split branches, deepest split). Every analysis honors
// -deadline (cancel the run after a duration) and validate honors
// -workers (data-parallel validation). Graphs are JSON
// (see gedlib.LoadGraph); rules use the DSL:
//
//	ged phi1 on (x:person)-[create]->(y:product) {
//	  when y.type = "video game"
//	  then x.type = "programmer"
//	}
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"gedlib"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	graphPath := fs.String("graph", "", "JSON graph file")
	rulesPath := fs.String("rules", "", "DSL rules file")
	target := fs.String("target", "", "rule name for implies/prove")
	limit := fs.Int("limit", 20, "maximum violations to report")
	workers := fs.Int("workers", 1, "validation workers (<=0 selects GOMAXPROCS)")
	deadline := fs.Duration("deadline", 0, "abort the analysis after this duration (0 = none)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		fatal(err)
	}

	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	eng := gedlib.New(
		gedlib.WithWorkers(*workers),
		gedlib.WithViolationLimit(*limit),
	)

	switch cmd {
	case "validate":
		g := loadGraph(*graphPath)
		sigma := loadRules(*rulesPath)
		vs, err := eng.Validate(ctx, g, sigma)
		if err != nil {
			fatal(err)
		}
		if len(vs) == 0 {
			fmt.Println("graph satisfies all rules")
			return
		}
		for _, v := range vs {
			fmt.Printf("violation of %s at %v: fails %s\n", v.GED.Name, v.Match, v.Literal)
		}
		os.Exit(1)
	case "sat":
		sigma := loadRules(*rulesPath)
		r, err := eng.CheckSat(ctx, sigma)
		if err != nil {
			fatal(err)
		}
		printStats(r.Stats.Chases, r.Stats.Branches, r.Stats.Depth)
		if !r.Satisfiable {
			if r.Conflict != nil {
				fmt.Println("unsatisfiable:", r.Conflict)
			} else {
				fmt.Println("unsatisfiable: every case split fails")
			}
			os.Exit(1)
		}
		fmt.Println("satisfiable; witness model:")
		fmt.Print(r.Model)
	case "implies":
		sigma, phi := splitTarget(loadRules(*rulesPath), *target)
		r, err := eng.Implies(ctx, sigma, phi)
		if err != nil {
			fatal(err)
		}
		printStats(r.Stats.Chases, r.Stats.Branches, r.Stats.Depth)
		if r.Implied {
			how := "by deduction"
			if r.ByInconsistency {
				how = "vacuously (inconsistent antecedent)"
			}
			fmt.Printf("%s is implied %s\n", phi.Name, how)
			return
		}
		if r.Missing != nil {
			fmt.Printf("%s is NOT implied; missing literal: %s\n", phi.Name, *r.Missing)
		} else {
			fmt.Printf("%s is NOT implied\n", phi.Name)
		}
		fmt.Print("counterexample:\n", r.Counterexample())
		os.Exit(1)
	case "prove":
		sigma, phi := splitTarget(loadRules(*rulesPath), *target)
		p, err := eng.Prove(ctx, sigma, phi)
		if err != nil {
			fatal(err)
		}
		if err := eng.CheckProof(ctx, sigma, p); err != nil {
			fatal(fmt.Errorf("generated proof failed checking: %w", err))
		}
		fmt.Printf("A_GED proof of %s (%d steps):\n%s", phi.Name, p.Len(), p)
	case "discover":
		g := loadGraph(*graphPath)
		found, err := eng.Discover(ctx, g, gedlib.DiscoverOptions{})
		if err != nil {
			fatal(err)
		}
		if len(found) == 0 {
			fmt.Println("no rules discovered")
			return
		}
		var mined gedlib.RuleSet
		for _, d := range found {
			mined = append(mined, d.GED)
		}
		fmt.Printf("# %d rules discovered\n%s", len(found), gedlib.FormatRules(mined))
	case "chase":
		g := loadGraph(*graphPath)
		sigma := loadRules(*rulesPath)
		res, err := eng.Chase(ctx, g, sigma)
		if err != nil {
			fatal(err)
		}
		if !res.Consistent() {
			fmt.Println("chase is invalid (⊥):", res.Eq.Conflict())
			os.Exit(1)
		}
		fmt.Printf("chase applied %d steps; quotient graph:\n", len(res.Steps))
		fmt.Print(res.Coercion().Graph)
		classes := res.Eq.NodeClasses()
		for rep, members := range classes {
			if len(members) > 1 {
				fmt.Printf("merged %v -> class of n%d\n", members, rep)
			}
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: gedcheck validate|sat|implies|prove|chase|discover [flags]

  validate -graph g.json -rules deps.ged    violations of the rules
  sat      -rules deps.ged                  a witness model, or why there is none
  implies  -rules deps.ged -target name     does the rest imply the target? else a counterexample
  prove    -rules deps.ged -target name     an A_GED proof of the implication (GEDs only)
  chase    -graph g.json -rules deps.ged    chase the graph (GEDs only)
  discover -graph g.json                    mine GFDs from the graph

Rules may be GEDs, GDCs and GED∨s except where noted. sat and implies
fail with "no witness value fits between two adjacent strings" on the
one case they cannot decide: a value bounded by two strings with no
string between them.
`)
	os.Exit(2)
}

// printStats reports the work of a satisfiability or implication search.
func printStats(chases, branches, depth int) {
	fmt.Printf("search: %d chases, %d case-split branches, depth %d\n", chases, branches, depth)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gedcheck:", err)
	os.Exit(1)
}

func loadGraph(path string) *gedlib.Graph {
	if path == "" {
		fatal(fmt.Errorf("missing -graph"))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	g, _, err := gedlib.LoadGraph(data)
	if err != nil {
		fatal(err)
	}
	return g
}

func loadRules(path string) gedlib.RuleSet {
	if path == "" {
		fatal(fmt.Errorf("missing -rules"))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	sigma, err := gedlib.ParseRules(string(data))
	if err != nil {
		fatal(err)
	}
	return sigma
}

// splitTarget extracts the named rule as φ and returns the rest as Σ.
func splitTarget(all gedlib.RuleSet, name string) (gedlib.RuleSet, *gedlib.Rule) {
	if name == "" {
		fatal(fmt.Errorf("missing -target"))
	}
	var sigma gedlib.RuleSet
	var phi *gedlib.Rule
	for _, d := range all {
		if d.Name == name && phi == nil {
			phi = d
			continue
		}
		sigma = append(sigma, d)
	}
	if phi == nil {
		fatal(fmt.Errorf("rule %q not found", name))
	}
	return sigma, phi
}
