package chase_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"gedlib/internal/axiom"
	"gedlib/internal/chase"
	"gedlib/internal/ged"
	"gedlib/internal/gen"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// TestExplainPaperKeysUnchanged pins what the proof forests answer on
// the recursive keys to what they answered while they were per-term
// adjacency maps: the forests are append-only logs now, indexed by the
// first explanation, and neither the chains nor the A_GED proof replayed
// from them may move. The golden strings were recorded at the commit
// before the change.
func TestExplainPaperKeysUnchanged(t *testing.T) {
	ctx := context.Background()
	g, _ := gen.MusicDB(3, 100, 0.2)
	keys := gen.PaperKeys()
	res, err := chase.RunCtx(ctx, g, keys, nil, 0)
	if err != nil || !res.Consistent() {
		t.Fatalf("chase: err %v, consistent %v", err, res.Consistent())
	}
	eq := res.Eq
	// The first duplicated artist, and the album ψ1 merged because of it.
	var a, b graph.NodeID = -1, -1
	for _, u := range g.Nodes() {
		if r := eq.NodeRoot(u); r != u && g.Label(u) == "artist" {
			a, b = min(r, u), max(r, u)
			break
		}
	}
	if a < 0 {
		t.Fatal("no artist was identified")
	}
	var out strings.Builder
	for _, l := range eq.ExplainNodes(a, b) {
		st := res.Steps[l.Reason.Step]
		fmt.Fprintf(&out, "n%d = n%d: step %d, %s literal %d\n", l.A, l.B, l.Reason.Step, keys[st.GED].Name, st.Literal)
		m := map[pattern.Var]graph.NodeID{}
		for v, u := range st.Match {
			m[v] = u
		}
		if lit := keys[st.GED].Y[st.Literal]; !chase.Holds(eq, lit, m) || !res.Deduced(lit, m) {
			t.Errorf("step %d's literal %s does not hold in the final relation", l.Reason.Step, lit)
		}
	}
	sa, oka := eq.SlotTermExact(a, "name")
	sb, okb := eq.SlotTermExact(b, "name")
	if !oka || !okb {
		t.Fatalf("stored slots n%d.name, n%d.name: %v, %v", a, b, oka, okb)
	}
	for _, l := range eq.ExplainTerms(sa, sb) {
		fmt.Fprintf(&out, "%s = %s: reason %d\n", l.A, l.B, l.Reason.Kind)
	}
	name, _ := g.Attr(a, "name")
	ct, okc := eq.ConstTermExact(name)
	cls, owner, oks := eq.ClassSlotTerm(b, "name")
	if !okc || !oks || owner != a && owner != b {
		t.Fatalf("constant term of %s: %v; class slot of n%d.name: %v, owner n%d", name, okc, b, oks, owner)
	}
	for _, l := range eq.ExplainTerms(cls, ct) {
		fmt.Fprintf(&out, "%s = %s: reason %d\n", l.A, l.B, l.Reason.Kind)
	}
	const wantChains = `n30 = n33: step 22, psi3 literal 0
n30.name = "artist9": reason 0
"artist9" = n33.name: reason 0
n30.name = "artist9": reason 0
`
	if out.String() != wantChains {
		t.Errorf("explanations moved:\n%s", out.String())
	}

	// The ψ2 → ψ3 → ψ1 cascade as one implication, proved from the forests.
	q := pattern.New()
	q.AddVar("a1", "album").AddVar("b1", "album").AddVar("r1", "artist")
	q.AddVar("a2", "album").AddVar("b2", "album").AddVar("r2", "artist")
	q.AddEdge("a1", "by", "r1").AddEdge("b1", "by", "r1").AddEdge("a2", "by", "r2").AddEdge("b2", "by", "r2")
	phi := ged.New("cascade", q,
		[]ged.Literal{
			ged.VarLit("a1", "title", "a2", "title"),
			ged.VarLit("a1", "release", "a2", "release"),
			ged.VarLit("r1", "name", "r2", "name"),
			ged.VarLit("b1", "title", "b2", "title"),
		},
		[]ged.Literal{ged.IDLit("b1", "b2"), ged.IDLit("r1", "r2")})
	p, err := axiom.Prove(keys, phi)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if err := axiom.Check(keys, p); err != nil {
		t.Fatalf("Check: %v\n%s", err, p)
	}
	const wantProof = "12 steps, sha256 4b50455dca4202978d0994c6557d21ccec395ccf3ddc20fbe282ffa22ddd9b87"
	if got := fmt.Sprintf("%d steps, sha256 %x", p.Len(), sha256.Sum256([]byte(p.String()))); got != wantProof {
		t.Errorf("proof moved: %s\n%s", got, p)
	}
}
