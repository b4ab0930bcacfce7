package discover

import (
	"context"
	"strings"
	"testing"

	"gedlib/internal/ged"
	"gedlib/internal/gen"
	"gedlib/internal/graph"
	"gedlib/internal/reason"
)

// gameGraph builds a catalog where every video game is created by a
// programmer — the φ₁ regularity, plantable and minable.
func gameGraph(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		p := g.AddNodeAttrs("person", map[graph.Attr]graph.Value{
			"type": graph.String("programmer")})
		pr := g.AddNodeAttrs("product", map[graph.Attr]graph.Value{
			"type": graph.String("video game")})
		g.AddEdge(p, "create", pr)
	}
	return g
}

func TestDiscoverConstantRule(t *testing.T) {
	g := gameGraph(5)
	found := GFDs(g, Options{})
	if len(found) == 0 {
		t.Fatal("nothing discovered")
	}
	// Among the discovered rules: persons are programmers.
	var hit bool
	for _, d := range found {
		s := d.GED.String()
		if strings.Contains(s, `type = "programmer"`) && d.Support >= 5 {
			hit = true
		}
	}
	if !hit {
		t.Errorf("constant rule not discovered; got %d rules", len(found))
	}
	// Every discovered rule is exact on g.
	for _, d := range found {
		if !reason.Satisfies(g, ged.Set{d.GED}) {
			t.Errorf("discovered rule violated: %s", d.GED)
		}
	}
}

func TestDiscoverConditionalRule(t *testing.T) {
	// Mixed creators: video games by programmers, board games by
	// designers. The unconditional rule fails; the conditional ones hold.
	g := graph.New()
	add := func(ptype, gtype string) {
		p := g.AddNodeAttrs("person", map[graph.Attr]graph.Value{"type": graph.String(ptype)})
		pr := g.AddNodeAttrs("product", map[graph.Attr]graph.Value{"type": graph.String(gtype)})
		g.AddEdge(p, "create", pr)
	}
	for i := 0; i < 4; i++ {
		add("programmer", "video game")
		add("designer", "board game")
	}
	found := GFDs(g, Options{})
	var condVG, condBG, uncond bool
	for _, d := range found {
		s := d.GED.String()
		if strings.Contains(s, `y.type = "video game" -> x.type = "programmer"`) {
			condVG = true
		}
		if strings.Contains(s, `y.type = "board game" -> x.type = "designer"`) {
			condBG = true
		}
		if strings.Contains(s, `true -> x.type = "programmer"`) {
			uncond = true
		}
	}
	if !condVG || !condBG {
		var all []string
		for _, d := range found {
			all = append(all, d.GED.String())
		}
		t.Errorf("conditional rules missing (vg=%v bg=%v); discovered:\n%s",
			condVG, condBG, strings.Join(all, "\n"))
	}
	if uncond {
		t.Error("unconditional creator rule must not hold on mixed data")
	}
}

func TestDiscoverVariableRule(t *testing.T) {
	// Cities carry their country's region: x.region = y.region across
	// every capital edge.
	g := graph.New()
	for i := 0; i < 4; i++ {
		r := graph.String(string(rune('A' + i)))
		c := g.AddNodeAttrs("country", map[graph.Attr]graph.Value{"region": r})
		ci := g.AddNodeAttrs("city", map[graph.Attr]graph.Value{"region": r})
		g.AddEdge(c, "capital", ci)
	}
	found := GFDs(g, Options{})
	var hit bool
	for _, d := range found {
		if strings.Contains(d.GED.String(), "x.region = y.region") {
			hit = true
		}
	}
	if !hit {
		t.Error("variable rule not discovered")
	}
}

func TestDiscoverPrunesImplied(t *testing.T) {
	g := gameGraph(6)
	pruned := GFDs(g, Options{})
	unpruned := GFDs(g, Options{SkipPruning: true})
	if len(pruned) > len(unpruned) {
		t.Fatal("pruning added rules?!")
	}
	if len(pruned) == len(unpruned) {
		t.Skip("no redundancy on this input")
	}
	// The pruned set implies everything in the unpruned set.
	var kept ged.Set
	for _, d := range pruned {
		kept = append(kept, d.GED)
	}
	for _, d := range unpruned {
		if r, _ := reason.ImpliesCtx(context.Background(), kept, d.GED, 0); !r.Implied {
			t.Errorf("pruned set lost information: %s", d.GED)
		}
	}
}

func TestDiscoverMinSupport(t *testing.T) {
	g := gameGraph(1) // single match: below the default support of 2
	if found := GFDs(g, Options{}); len(found) != 0 {
		t.Errorf("support-1 rules must be suppressed, got %d", len(found))
	}
	if found := GFDs(g, Options{MinSupport: 1}); len(found) == 0 {
		t.Error("support 1 must re-enable mining")
	}
}

func TestDiscoverOnCleanKB(t *testing.T) {
	// On a clean knowledge base, mined rules must include the planted
	// regularities (species inherit can_fly) and all be exact.
	g, _ := gen.KnowledgeBase(8, 30, 0)
	found := GFDs(g, Options{})
	if len(found) == 0 {
		t.Fatal("nothing mined from the knowledge base")
	}
	for _, d := range found {
		if !reason.Satisfies(g, ged.Set{d.GED}) {
			t.Errorf("mined rule violated: %s", d.GED)
		}
	}
}

func TestDiscoverDomainCap(t *testing.T) {
	// An attribute with a huge domain must not explode into per-value
	// conditional rules.
	g := graph.New()
	for i := 0; i < 40; i++ {
		g.AddNodeAttrs("p", map[graph.Attr]graph.Value{
			"serial": graph.Int(i), "kind": graph.String("widget")})
	}
	found := GFDs(g, Options{})
	for _, d := range found {
		if strings.Contains(d.GED.Name, "cond:x.serial") {
			t.Errorf("high-cardinality antecedent mined: %s", d.GED.Name)
		}
	}
}
