package repair

import (
	"math/rand"
	"strings"
	"testing"

	"gedlib/internal/ged"
	"gedlib/internal/gen"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
	"gedlib/internal/reason"
)

func TestRepairFillsMissingName(t *testing.T) {
	// Two capitals of one country must share a name; the second one is
	// missing it, and the repair copies it over.
	g := graph.New()
	c := g.AddNode("country")
	y := g.AddNodeAttrs("city", map[graph.Attr]graph.Value{"name": graph.String("Helsinki")})
	z := g.AddNode("city")
	g.AddEdge(c, "capital", y)
	g.AddEdge(c, "capital", z)
	sigma := ged.Set{gen.PaperPhi2()}

	r := Run(g, sigma)
	if !r.Repaired {
		t.Fatalf("repair failed: %v", r.Conflict)
	}
	if v, ok := r.Graph.Attr(r.NodeOf[z], "name"); !ok || !v.Equal(graph.String("Helsinki")) {
		t.Error("missing capital name must be filled in")
	}
	if !reason.Satisfies(r.Graph, sigma) {
		t.Error("repaired graph must satisfy Σ")
	}
	// The edit script names the rule and the copy.
	found := false
	for _, e := range r.Edits {
		if e.Kind == SetAttr && e.Value.Equal(graph.String("Helsinki")) && e.Rule == "phi2" {
			found = true
		}
	}
	if !found {
		t.Errorf("edit script missing the name copy: %v", r.Edits)
	}
	// The input graph is untouched.
	if _, ok := g.Attr(z, "name"); ok {
		t.Error("Run must not mutate its input")
	}
}

// TestRepairLeavesInputUnchanged: repairing reads the input and writes
// only the repaired graph — merges, filled-in names and generated
// attributes leave the input's content and mutation counter as they
// were.
func TestRepairLeavesInputUnchanged(t *testing.T) {
	catalog, _ := gen.MusicDB(3, 25, 0.4)
	capitals := graph.New()
	c := capitals.AddNode("country")
	capitals.AddEdge(c, "capital", capitals.AddNodeAttrs("city", map[graph.Attr]graph.Value{"name": graph.String("Helsinki")}))
	capitals.AddEdge(c, "capital", capitals.AddNode("city"))
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		sigma ged.Set
	}{
		{"catalog", catalog, gen.PaperKeys()},
		{"capitals", capitals, ged.Set{gen.PaperPhi2()}},
	} {
		before, version := tc.g.String(), tc.g.Version()
		r := Run(tc.g, tc.sigma)
		if !r.Repaired || len(r.Edits) == 0 {
			t.Fatalf("%s: repaired %v with %d edits", tc.name, r.Repaired, len(r.Edits))
		}
		if tc.g.String() != before || tc.g.Version() != version {
			t.Fatalf("%s: Run mutated its input (version %d -> %d)", tc.name, version, tc.g.Version())
		}
	}
}

func TestRepairMergesDuplicates(t *testing.T) {
	g, stats := gen.MusicDB(3, 25, 0.4)
	if stats.DupPairs == 0 {
		t.Skip("no duplicates planted")
	}
	keys := gen.PaperKeys()
	r := Run(g, keys)
	if !r.Repaired {
		t.Fatalf("repair failed: %v", r.Conflict)
	}
	if r.Graph.NumNodes() >= g.NumNodes() {
		t.Error("duplicates must merge")
	}
	if !reason.Satisfies(r.Graph, keys) {
		t.Error("repaired catalog must satisfy the keys")
	}
	merges := 0
	for _, e := range r.Edits {
		if e.Kind == MergeNodes {
			merges++
		}
	}
	if merges == 0 {
		t.Error("edit script must record merges")
	}
}

func TestRepairDetectsUnrepairable(t *testing.T) {
	// A forbidding constraint matched: no value edit fixes it.
	g := graph.New()
	a := g.AddNode("person")
	b := g.AddNode("person")
	g.AddEdge(a, "child", b)
	g.AddEdge(a, "parent", b)
	sigma := ged.Set{gen.PaperPhi4()}
	r := Run(g, sigma)
	if r.Repaired {
		t.Fatal("child-parent cycle must be unrepairable")
	}
	if r.Conflict == nil || r.ConflictRule != "phi4" {
		t.Errorf("conflict attribution wrong: %v / %s", r.Conflict, r.ConflictRule)
	}
}

func TestRepairConflictingConstants(t *testing.T) {
	// The creator's stored type contradicts the rule's constant: the
	// chase refuses to overwrite silently.
	g := graph.New()
	dev := g.AddNodeAttrs("person", map[graph.Attr]graph.Value{"type": graph.String("psychologist")})
	game := g.AddNodeAttrs("product", map[graph.Attr]graph.Value{"type": graph.String("video game")})
	g.AddEdge(dev, "create", game)
	r := Run(g, ged.Set{gen.PaperPhi1()})
	if r.Repaired {
		t.Fatal("contradicting constants must be reported, not overwritten")
	}
}

func TestRepairSetsConstant(t *testing.T) {
	// When the attribute is absent, the constant is written.
	g := graph.New()
	dev := g.AddNode("person")
	game := g.AddNodeAttrs("product", map[graph.Attr]graph.Value{"type": graph.String("video game")})
	g.AddEdge(dev, "create", game)
	r := Run(g, ged.Set{gen.PaperPhi1()})
	if !r.Repaired {
		t.Fatalf("repair failed: %v", r.Conflict)
	}
	if v, ok := r.Graph.Attr(r.NodeOf[dev], "type"); !ok || !v.Equal(graph.String("programmer")) {
		t.Error("missing type must be set to programmer")
	}
	if len(r.Edits) != 1 || r.Edits[0].Kind != SetAttr || r.Edits[0].HadOld {
		t.Errorf("edit script wrong: %v", r.Edits)
	}
	if !strings.Contains(r.Edits[0].String(), "(new)") {
		t.Errorf("edit rendering wrong: %s", r.Edits[0])
	}
}

func TestCheckListsViolations(t *testing.T) {
	g, stats := gen.KnowledgeBase(5, 20, 0.4)
	sigma := ged.Set{gen.PaperPhi1(), gen.PaperPhi2(), gen.PaperPhi3(), gen.PaperPhi4()}
	vs := Check(g, sigma)
	if len(vs) < stats.Total() {
		t.Errorf("Check found %d, planted %d", len(vs), stats.Total())
	}
}

// TestRepairedAlwaysSatisfies: property test — whenever the repair
// succeeds, the result satisfies Σ; whenever it fails, the original
// graph indeed violates Σ.
func TestRepairedAlwaysSatisfies(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	repaired, conflicted := 0, 0
	for trial := 0; trial < 80; trial++ {
		sigma := randomSigma(rng)
		g := randomGraph(rng)
		r := Run(g, sigma)
		if r.Repaired {
			repaired++
			if !reason.Satisfies(r.Graph, sigma) {
				t.Fatalf("trial %d: repaired graph violates Σ", trial)
			}
		} else {
			conflicted++
			if reason.Satisfies(g, sigma) {
				t.Fatalf("trial %d: unrepairable but graph satisfies Σ", trial)
			}
		}
	}
	t.Logf("repaired=%d conflicted=%d", repaired, conflicted)
}

func randomSigma(rng *rand.Rand) ged.Set {
	labels := []graph.Label{"a", "b"}
	attrs := []graph.Attr{"p", "q"}
	var sigma ged.Set
	for i := 0; i < 1+rng.Intn(2); i++ {
		q := pattern.New()
		q.AddVar("x", labels[rng.Intn(len(labels))])
		q.AddVar("y", labels[rng.Intn(len(labels))])
		if rng.Intn(2) == 0 {
			q.AddEdge("x", "e", "y")
		}
		var xs, ys []ged.Literal
		if rng.Intn(2) == 0 {
			xs = append(xs, ged.VarLit("x", attrs[0], "y", attrs[0]))
		}
		switch rng.Intn(3) {
		case 0:
			ys = append(ys, ged.IDLit("x", "y"))
		case 1:
			ys = append(ys, ged.ConstLit("y", attrs[rng.Intn(2)], graph.Int(rng.Intn(2))))
		default:
			ys = append(ys, ged.VarLit("x", attrs[1], "y", attrs[1]))
		}
		sigma = append(sigma, ged.New("r", q, xs, ys))
	}
	return sigma
}

func randomGraph(rng *rand.Rand) *graph.Graph {
	labels := []graph.Label{"a", "b"}
	attrs := []graph.Attr{"p", "q"}
	g := graph.New()
	n := 2 + rng.Intn(4)
	for i := 0; i < n; i++ {
		id := g.AddNode(labels[rng.Intn(len(labels))])
		for _, a := range attrs {
			if rng.Intn(2) == 0 {
				g.SetAttr(id, a, graph.Int(rng.Intn(2)))
			}
		}
	}
	for i := 0; i < 2*n; i++ {
		if rng.Intn(2) == 0 {
			g.AddEdge(graph.NodeID(rng.Intn(n)), "e", graph.NodeID(rng.Intn(n)))
		}
	}
	return g
}
