package reason

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"gedlib/internal/ged"
	"gedlib/internal/gen"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// TestValidatorMatchesValidate: the prepared validator and the
// Match-map oracle agree on random instances.
func TestValidatorMatchesValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 40; trial++ {
		sigma := randomSigma(rng)
		g := randomGraph(rng)
		want := canonViolations(matchOracle(g.Freeze(), sigma), sigma)
		got := canonViolations(validate(g, sigma, 0), sigma)
		if len(want) != len(got) {
			t.Fatalf("trial %d: %d vs %d violations", trial, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: violation sets differ", trial)
			}
		}
	}
}

// TestValidatorUsesIndexPivot: φ₁'s antecedent (y.type = "video game")
// is rare in a graph with many products, so the plan seeds at y from the
// attribute index — the seeds every worker count cuts into morsels.
func TestValidatorUsesIndexPivot(t *testing.T) {
	g, _ := gen.KnowledgeBase(17, 100, 0.1)
	sigma := ged.Set{gen.PaperPhi1()}
	snap := g.Freeze()
	v := NewValidatorOn(snap, sigma)
	if fp := v.plans[0].Fingerprint(); !strings.HasPrefix(fp, "y,") {
		t.Errorf("plan %s does not seed at y", fp)
	}
	posting := len(snap.Lookup("type", graph.String("video game")))
	if n := v.plans[0].SeedCount(); n != posting || n >= snap.LabelCount("product") {
		t.Errorf("%d seeds, want the %d video games, fewer than the products", n, posting)
	}
	ctx := context.Background()
	seq, _ := v.RunCtx(ctx, 0)
	par, err := v.RunParallelCtx(ctx, 0, 2)
	if err != nil || violationBytes(par, sigma) != violationBytes(seq, sigma) {
		t.Error("indexed parallel validation disagrees")
	}
}

func TestValidatorRepeatedRuns(t *testing.T) {
	g, _ := gen.KnowledgeBase(19, 40, 0.2)
	sigma := ged.Set{gen.PaperPhi1(), gen.PaperPhi2()}
	v := NewValidatorOn(g.Freeze(), sigma)
	ctx := context.Background()
	a, _ := v.RunCtx(ctx, 0)
	b, _ := v.RunCtx(ctx, 0)
	if len(a) != len(b) {
		t.Error("repeated runs must agree")
	}
	if Satisfies(g, sigma) != (len(a) == 0) {
		t.Error("Satisfies disagrees with RunCtx")
	}
}

func TestValidatorLimit(t *testing.T) {
	q := pattern.New()
	q.AddVar("x", "p")
	phi := ged.New("f", q,
		[]ged.Literal{ged.ConstLit("x", "k", graph.Int(1))},
		[]ged.Literal{ged.ConstLit("x", "m", graph.Int(2))})
	g := graph.New()
	for i := 0; i < 20; i++ {
		g.AddNodeAttrs("p", map[graph.Attr]graph.Value{"k": graph.Int(1)})
	}
	if n := len(validate(g, ged.Set{phi}, 7)); n != 7 {
		t.Errorf("limit 7: got %d", n)
	}
}

// TestAttrIndex: the snapshot's attribute-value index, the one the
// validators' pushed-down constant literals probe.
func TestAttrIndex(t *testing.T) {
	g := graph.New()
	a := g.AddNodeAttrs("p", map[graph.Attr]graph.Value{"k": graph.Int(1)})
	b := g.AddNodeAttrs("p", map[graph.Attr]graph.Value{"k": graph.Int(1)})
	g.AddNodeAttrs("p", map[graph.Attr]graph.Value{"k": graph.Int(2)})
	snap := g.Freeze()
	got := snap.Lookup("k", graph.Int(1))
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Errorf("Lookup = %v", got)
	}
	if len(snap.Lookup("k", graph.Int(2))) != 1 {
		t.Error("selectivity wrong")
	}
	if snap.Lookup("k", graph.Int(9)) != nil {
		t.Error("missing value must return nil")
	}
	if !snap.HasAttr("k") || snap.HasAttr("zz") {
		t.Error("HasAttr wrong")
	}
}
