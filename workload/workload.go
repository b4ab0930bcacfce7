// Package workload exposes the library's synthetic workloads: the
// paper's running-example rules (φ₁–φ₅, ψ₁–ψ₃), generators for the
// knowledge-base / social-network / music-catalog scenarios of
// Example 1, and the 3-colorability hardness families behind the
// Table 1 reductions. Everything is deterministic in its seed.
package workload

import (
	"math/rand"

	"gedlib"
	"gedlib/internal/gen"
)

// ---- the paper's rules ----

// PaperPhi1 is φ₁: a video game can only be created by programmers.
func PaperPhi1() *gedlib.Rule { return gen.PaperPhi1() }

// PaperPhi2 is φ₂: a country's two capitals carry one name.
func PaperPhi2() *gedlib.Rule { return gen.PaperPhi2() }

// PaperPhi3 is φ₃: attribute inheritance over wildcard patterns.
func PaperPhi3() *gedlib.Rule { return gen.PaperPhi3() }

// PaperPhi4 is φ₄: nobody is both child and parent of the same person
// (a forbidding constraint).
func PaperPhi4() *gedlib.Rule { return gen.PaperPhi4() }

// PaperPhi5 is φ₅: the spam-detection rule over k shared liked blogs.
func PaperPhi5(k int) *gedlib.Rule { return gen.PaperPhi5(k) }

// PaperPsi1 is ψ₁: an album is identified by title and artist id.
func PaperPsi1() *gedlib.Rule { return gen.PaperPsi1() }

// PaperPsi2 is ψ₂: an album is identified by title and release year.
func PaperPsi2() *gedlib.Rule { return gen.PaperPsi2() }

// PaperPsi3 is ψ₃: an artist is identified by name and an album id.
func PaperPsi3() *gedlib.Rule { return gen.PaperPsi3() }

// PaperKeys is the recursive key set {ψ₁, ψ₂, ψ₃} of Example 1(3).
func PaperKeys() gedlib.RuleSet { return gen.PaperKeys() }

// PaperGEDs is the full running-example rule set.
func PaperGEDs() gedlib.RuleSet { return gen.PaperGEDs() }

// ---- scenario generators ----

// KBStats reports the inconsistencies planted by KnowledgeBase.
type KBStats = gen.KBStats

// SocialStats reports the accounts planted by SocialNetwork.
type SocialStats = gen.SocialStats

// MusicStats reports the duplicates planted by MusicDB.
type MusicStats = gen.MusicStats

// KnowledgeBase synthesizes a Yago/DBPedia-style knowledge base at the
// given scale with inconsistencies planted at the given rate, for the
// rules φ₁–φ₄.
func KnowledgeBase(seed int64, scale int, rate float64) (*gedlib.Graph, KBStats) {
	return gen.KnowledgeBase(seed, scale, rate)
}

// SocialNetwork synthesizes a social graph for the spam rule φ₅.
func SocialNetwork(seed int64, rings, accountsPerRing int) (*gedlib.Graph, SocialStats) {
	return gen.SocialNetwork(seed, rings, accountsPerRing)
}

// MusicDB synthesizes the album/artist catalog of Example 1(3) with
// duplicate entities planted at the given rate, for the keys ψ₁–ψ₃.
func MusicDB(seed int64, artists int, dupRate float64) (*gedlib.Graph, MusicStats) {
	return gen.MusicDB(seed, artists, dupRate)
}

// RandomPropertyGraph synthesizes an n-node property graph with the
// given average degree, labels, attributes and attribute domain size.
func RandomPropertyGraph(seed int64, n int, deg float64, labels []gedlib.Label, attrs []gedlib.Attr, domain int) *gedlib.Graph {
	return gen.RandomPropertyGraph(seed, n, deg, labels, attrs, domain)
}

// RandomGEDSet synthesizes count random well-formed rules over the
// given vocabulary.
func RandomGEDSet(seed int64, count, maxVars int, labels []gedlib.Label, attrs []gedlib.Attr, domain int) gedlib.RuleSet {
	return gen.RandomGEDSet(seed, count, maxVars, labels, attrs, domain)
}

// ---- hardness families (Table 1 reductions) ----

// UGraph is a simple undirected graph, the 3-colorability input of the
// hardness reductions.
type UGraph = gen.UGraph

// Complete returns K_n.
func Complete(n int) *UGraph { return gen.Complete(n) }

// Cycle returns C_n.
func Cycle(n int) *UGraph { return gen.Cycle(n) }

// Path returns P_n.
func Path(n int) *UGraph { return gen.Path(n) }

// Wheel returns W_n: C_n plus a hub.
func Wheel(n int) *UGraph { return gen.Wheel(n) }

// Petersen returns the Petersen graph.
func Petersen() *UGraph { return gen.Petersen() }

// CompleteBipartite returns K_{a,b}.
func CompleteBipartite(a, b int) *UGraph { return gen.CompleteBipartite(a, b) }

// Mycielski returns the Mycielskian of g (raises chromatic number,
// keeps the graph triangle-free).
func Mycielski(g *UGraph) *UGraph { return gen.Mycielski(g) }

// Grotzsch returns the Grötzsch graph, the smallest triangle-free
// 4-chromatic graph.
func Grotzsch() *UGraph { return gen.Grotzsch() }

// RandomConnected returns a random connected graph on n nodes with
// extra additional edges.
func RandomConnected(rng *rand.Rand, n, extra int) *UGraph { return gen.RandomConnected(rng, n, extra) }

// SatGFDFamily reduces 3-colorability of h to GFD satisfiability
// (Theorem 3): Σ is satisfiable iff h is 3-colorable.
func SatGFDFamily(h *UGraph) gedlib.RuleSet { return gen.SatGFDFamily(h) }

// ImplGFDxFamily reduces 3-colorability of h to GFDx implication
// (Theorem 5): Σ ⊨ φ iff h is not 3-colorable.
func ImplGFDxFamily(h *UGraph) (gedlib.RuleSet, *gedlib.Rule) { return gen.ImplGFDxFamily(h) }

// ImplGKeyFamily is the GKey variant of the implication reduction.
func ImplGKeyFamily(h *UGraph) (gedlib.RuleSet, *gedlib.Rule) { return gen.ImplGKeyFamily(h) }

// ValidGFDxFamily reduces 3-colorability of h to GFDx validation.
func ValidGFDxFamily(h *UGraph) (*gedlib.Graph, gedlib.RuleSet) { return gen.ValidGFDxFamily(h) }

// ValidGKeyFamily is the GKey variant of the validation reduction.
func ValidGKeyFamily(h *UGraph) (*gedlib.Graph, gedlib.RuleSet) { return gen.ValidGKeyFamily(h) }
