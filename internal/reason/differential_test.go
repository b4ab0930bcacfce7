package reason

// Differential and property tests for snapshot-backed validation: the
// frozen-snapshot path must report exactly the same violation sets —
// and, for the canonical-order APIs, the same violation order — as
// matching directly over the mutable graph, across generated workloads.
// The benchmarks compare the two paths head to head on the workload
// generators' larger graphs.

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
// to identical violation sets over both hosts, and the canonical-order
// parallel path returns the identical ordered list on both.
func TestValidateSnapshotDifferential(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed % 1_000_000))
		sigma := randomSigma(rng)
		g := randomGraph(rng)
		snap := g.Freeze()

		onGraph, _ := ValidateOnCtx(ctx, g, sigma, 0)
		onSnap, _ := ValidateOnCtx(ctx, snap, sigma, 0)
		if !equalStrings(canonViolations(onGraph, sigma), canonViolations(onSnap, sigma)) {
			t.Logf("seed %d: violation sets differ (%d vs %d)", seed, len(onGraph), len(onSnap))
			return false
		}

		// The canonical-order APIs must agree as ordered lists.
		parGraph, _ := ValidateParallelOnCtx(ctx, g, sigma, 0, 4)
		parSnap, _ := ValidateParallelOnCtx(ctx, snap, sigma, 0, 4)
		if !equalStrings(orderedCanon(parGraph, sigma), orderedCanon(parSnap, sigma)) {
			t.Logf("seed %d: canonical violation order differs", seed)
			return false
		}
		// And both must be the canonical ordering of the sequential set.
		seq := append([]Violation(nil), onSnap...)
		SortViolations(seq, sigma)
		return equalStrings(orderedCanon(parSnap, sigma), orderedCanon(seq, sigma))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestValidateTouchingSnapshotDifferential: the incremental path agrees
// across hosts, order included (its contract is canonical order).
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
		onGraph, _ := ValidateTouchingOnCtx(ctx, g, sigma, touched, 0)
		onSnap, _ := ValidateTouchingOnCtx(ctx, g.Freeze(), sigma, touched, 0)
		if !equalStrings(orderedCanon(onGraph, sigma), orderedCanon(onSnap, sigma)) {
			t.Fatalf("trial %d: incremental violations differ across hosts", trial)
		}
	}
}

// TestValidatorSnapshotSharing: a validator built on a shared snapshot
// equals one that froze privately, and both equal plain validation.
func TestValidatorSnapshotSharing(t *testing.T) {
	g, _ := gen.KnowledgeBase(23, 60, 0.25)
	sigma := ged.Set{gen.PaperPhi1(), gen.PaperPhi2(), gen.PaperPhi3(), gen.PaperPhi4()}
	snap := g.Freeze()
	a := canonViolations(NewValidatorOn(snap, sigma).Run(0), sigma)
	b := canonViolations(NewValidator(g, sigma).Run(0), sigma)
	c := canonViolations(Validate(g, sigma, 0), sigma)
	if !equalStrings(a, b) || !equalStrings(b, c) {
		t.Fatalf("validator paths disagree: %d / %d / %d violations", len(a), len(b), len(c))
	}
}

// ---- benchmarks: snapshot path vs mutable-graph path ----

func benchValidate(b *testing.B, scale int) {
	g, _ := gen.KnowledgeBase(31, scale, 0.1)
	sigma := ged.Set{gen.PaperPhi1(), gen.PaperPhi2(), gen.PaperPhi3(), gen.PaperPhi4()}
	ctx := context.Background()
	b.Run("graph", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ValidateOnCtx(ctx, g, sigma, 0)
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		// Freeze cost is included: this is the end-to-end Validate path.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ValidateOnCtx(ctx, g.Freeze(), sigma, 0)
		}
	})
	b.Run("snapshot-cached", func(b *testing.B) {
		snap := g.Freeze()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ValidateOnCtx(ctx, snap, sigma, 0)
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
	b.Run("graph", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ValidateOnCtx(ctx, g, sigma, 0)
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ValidateOnCtx(ctx, g.Freeze(), sigma, 0)
		}
	})
}
