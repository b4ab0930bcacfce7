package gedlib_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"gedlib"
	"gedlib/workload"
)

func canon(vs []gedlib.Violation) []string {
	out := make([]string, 0, len(vs))
	for _, v := range vs {
		vars := v.GED.Pattern.Vars()
		s := v.GED.Name
		for _, x := range vars {
			s += fmt.Sprintf(":%s=%d", x, v.Match[x])
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// orderedCanon renders a violation list preserving its order, including
// the recorded failing literal, so that order and evidence both count.
func orderedCanon(vs []gedlib.Violation) string {
	out := ""
	for _, v := range vs {
		out += v.GED.Name
		for _, x := range v.GED.Pattern.Vars() {
			out += fmt.Sprintf(":%s=%d", x, v.Match[x])
		}
		out += fmt.Sprintf(" !%v\n", v.Literal)
	}
	return out
}

// TestEngineApplyMatchesValidate: Engine.Apply's maintained violation
// set equals a from-scratch Validate after every delta of a random
// update stream.
func TestEngineApplyMatchesValidate(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(41))
	g, _ := workload.KnowledgeBase(31, 30, 0.1)
	sigma := gedlib.RuleSet{
		workload.PaperPhi1(), workload.PaperPhi2(),
		workload.PaperPhi3(), workload.PaperPhi4(),
	}
	eng := gedlib.New()
	check := gedlib.New() // separate engine so Apply's cache is not shared

	for step := 0; step < 20; step++ {
		got, err := eng.Apply(ctx, g, sigma)
		if err != nil {
			t.Fatal(err)
		}
		want, err := check.Validate(ctx, g, sigma)
		if err != nil {
			t.Fatal(err)
		}
		a, b := canon(got), canon(want)
		if len(a) != len(b) {
			t.Fatalf("step %d: Apply reports %d violations, Validate %d", step, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("step %d: violation sets differ at %d: %s vs %s", step, i, a[i], b[i])
			}
		}
		// Mutate a handful of nodes for the next round.
		for k := 0; k < 1+rng.Intn(3); k++ {
			id := gedlib.NodeID(rng.Intn(g.NumNodes()))
			switch rng.Intn(3) {
			case 0:
				g.SetAttr(id, "type", gedlib.String("psychologist"))
			case 1:
				g.SetAttr(id, "type", gedlib.String("programmer"))
			default:
				g.AddEdge(id, "create", gedlib.NodeID(rng.Intn(g.NumNodes())))
			}
		}
	}
}

// TestEngineApplyLimit: the violation limit truncates Apply's report
// without corrupting the maintained set.
func TestEngineApplyLimit(t *testing.T) {
	ctx := context.Background()
	g, stats := workload.KnowledgeBase(33, 40, 0.4)
	if stats.Total() == 0 {
		t.Skip("no planted violations")
	}
	sigma := gedlib.RuleSet{
		workload.PaperPhi1(), workload.PaperPhi2(),
		workload.PaperPhi3(), workload.PaperPhi4(),
	}
	full, err := gedlib.New().Apply(ctx, g, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 2 {
		t.Skip("need at least two violations")
	}
	lim, err := gedlib.New(gedlib.WithViolationLimit(1)).Apply(ctx, g, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if len(lim) != 1 {
		t.Fatalf("limit 1 reported %d violations", len(lim))
	}
}

// TestEngineApplyAfterValidate: interleaving Apply with the other
// graph-bound methods keeps every answer fresh.
func TestEngineApplyAfterValidate(t *testing.T) {
	ctx := context.Background()
	eng := gedlib.New()
	g := gedlib.NewGraph()
	game := g.AddNode("product")
	g.SetAttr(game, "type", gedlib.String("video game"))
	dev := g.AddNode("person")
	g.SetAttr(dev, "type", gedlib.String("artist"))
	g.AddEdge(dev, "create", game)
	sigma := gedlib.RuleSet{workload.PaperPhi1()}

	if vs, _ := eng.Validate(ctx, g, sigma); len(vs) != 1 {
		t.Fatalf("Validate: want 1 violation, got %d", len(vs))
	}
	if vs, _ := eng.Apply(ctx, g, sigma); len(vs) != 1 {
		t.Fatalf("Apply: want 1 violation, got %d", len(vs))
	}
	// Repair; both views must converge to clean.
	g.SetAttr(dev, "type", gedlib.String("programmer"))
	if vs, _ := eng.Apply(ctx, g, sigma); len(vs) != 0 {
		t.Fatalf("Apply after repair: want 0, got %d", len(vs))
	}
	if vs, _ := eng.Validate(ctx, g, sigma); len(vs) != 0 {
		t.Fatalf("Validate after repair: want 0, got %d", len(vs))
	}
	// Incremental view over the delta-maintained snapshot.
	g.SetAttr(dev, "type", gedlib.String("gardener"))
	vs, err := eng.ValidateIncremental(ctx, g, sigma, []gedlib.NodeID{dev})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("ValidateIncremental: want 1, got %d", len(vs))
	}
}

// TestEngineConcurrentApplies: graph-keyed Applies on distinct graphs
// run concurrently (each session's lock serializes only within its
// graph); must be race-clean under -race.
func TestEngineConcurrentApplies(t *testing.T) {
	ctx := context.Background()
	sigma := gedlib.RuleSet{workload.PaperPhi1(), workload.PaperPhi4()}
	eng := gedlib.New()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(700 + i)))
			g, _ := workload.KnowledgeBase(int64(40+i), 25, 0.2)
			for step := 0; step < 6; step++ {
				if _, err := eng.Apply(ctx, g, sigma); err != nil {
					t.Errorf("apply: %v", err)
					return
				}
				g.SetAttr(gedlib.NodeID(rng.Intn(g.NumNodes())), "type", gedlib.String("programmer"))
			}
		}(i)
	}
	wg.Wait()
}
