package reason

// Differential and property tests for validation: the sequential,
// parallel and touched searches must report exactly the violation sets
// of matchOracle — and, for the canonical-order APIs, its violation
// order — across generated workloads. The benchmarks time validation on
// the workload generators' larger graphs, with and without the freeze.

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"gedlib/internal/ged"
	"gedlib/internal/gen"
	"gedlib/internal/graph"
)

// orderedCanon renders violations in their reported order (no sorting),
// so equality checks cover order as well as membership.
func orderedCanon(vs []Violation, sigma ged.Set) []string {
	idx := make(map[*ged.GED]int)
	for i, d := range sigma {
		idx[d] = i
	}
	keys := make([]string, 0, len(vs))
	for _, v := range vs {
		s := ""
		for _, x := range v.GED.Pattern.Vars() {
			s += string(x) + "=" + itoa(int(v.Match[x])) + ";"
		}
		keys = append(keys, itoa(idx[v.GED])+":"+s)
	}
	return keys
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [24]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestValidateSnapshotDifferential: quick-generated workloads validate
// to the oracle's violation set, and the parallel path returns the
// sequential one's list, order included.
func TestValidateSnapshotDifferential(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed % 1_000_000))
		sigma := randomSigma(rng)
		g := randomGraph(rng)
		snap := g.Freeze()
		want := matchOracle(snap, sigma)
		val := NewValidatorOn(snap, sigma)

		seq, _ := val.RunCtx(ctx, 0)
		if !equalStrings(canonViolations(seq, sigma), canonViolations(want, sigma)) {
			t.Logf("seed %d: violation sets differ (%d vs %d)", seed, len(seq), len(want))
			return false
		}
		par, _ := val.RunParallelCtx(ctx, 0, 4)
		if !equalStrings(orderedCanon(par, sigma), orderedCanon(seq, sigma)) {
			t.Logf("seed %d: parallel violation order differs", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestValidateTouchingSnapshotDifferential: the incremental path agrees
// with the oracle restricted to matches binding a touched node, order
// included (its contract is canonical order).
func TestValidateTouchingSnapshotDifferential(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 15; trial++ {
		sigma := randomSigma(rng)
		g := randomGraph(rng)
		var touched []graph.NodeID
		for i := 0; i < 5 && i < g.NumNodes(); i++ {
			touched = append(touched, graph.NodeID(rng.Intn(g.NumNodes())))
		}
		snap := g.Freeze()
		var want []Violation
		for _, v := range matchOracle(snap, sigma) {
			if touches(touched)(v) {
				want = append(want, v)
			}
		}
		got, _ := NewValidatorOn(snap, sigma).TouchingCtx(ctx, touched, 0)
		if !equalStrings(orderedCanon(got, sigma), orderedCanon(want, sigma)) {
			t.Fatalf("trial %d: incremental violations differ from the oracle", trial)
		}
	}
}

// TestValidatorSnapshotSharing: validators sharing one snapshot agree
// with each other and with the oracle.
func TestValidatorSnapshotSharing(t *testing.T) {
	g, _ := gen.KnowledgeBase(23, 60, 0.25)
	sigma := ged.Set{gen.PaperPhi1(), gen.PaperPhi2(), gen.PaperPhi3(), gen.PaperPhi4()}
	snap := g.Freeze()
	ctx := context.Background()
	a, _ := NewValidatorOn(snap, sigma).RunCtx(ctx, 0)
	b, _ := NewValidatorOn(snap, sigma).RunParallelCtx(ctx, 0, 2)
	c := matchOracle(snap, sigma)
	if ca, cb, cc := canonViolations(a, sigma), canonViolations(b, sigma), canonViolations(c, sigma); !equalStrings(ca, cb) || !equalStrings(cb, cc) {
		t.Fatalf("validator paths disagree: %d / %d / %d violations", len(a), len(b), len(c))
	}
}

// ---- benchmarks ----

func benchValidate(b *testing.B, scale int) {
	g, _ := gen.KnowledgeBase(31, scale, 0.1)
	sigma := ged.Set{gen.PaperPhi1(), gen.PaperPhi2(), gen.PaperPhi3(), gen.PaperPhi4()}
	ctx := context.Background()
	b.Run("snapshot", func(b *testing.B) {
		// Freeze cost is included: this is the end-to-end validation path.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewValidatorOn(g.Freeze(), sigma).RunCtx(ctx, 0)
		}
	})
	b.Run("snapshot-cached", func(b *testing.B) {
		snap := g.Freeze()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewValidatorOn(snap, sigma).RunCtx(ctx, 0)
		}
	})
}

func BenchmarkValidateKB200(b *testing.B)  { benchValidate(b, 200) }
func BenchmarkValidateKB800(b *testing.B)  { benchValidate(b, 800) }
func BenchmarkValidateKB2000(b *testing.B) { benchValidate(b, 2000) }

func BenchmarkValidateSpamHosts(b *testing.B) {
	g, _ := gen.SocialNetwork(7, 12, 14)
	sigma := ged.Set{gen.PaperPhi5(2)}
	ctx := context.Background()
	b.Run("snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewValidatorOn(g.Freeze(), sigma).RunCtx(ctx, 0)
		}
	})
}
