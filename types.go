package gedlib

// This file re-exports the core vocabulary of the library from the
// internal packages, so that callers build graphs, patterns, rules and
// literals without ever naming gedlib/internal/...; the aliases carry
// every method of the underlying types.

import (
	"gedlib/internal/axiom"
	"gedlib/internal/chase"
	"gedlib/internal/discover"
	"gedlib/internal/gdc"
	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/optimize"
	"gedlib/internal/pattern"
	"gedlib/internal/reason"
	"gedlib/internal/repair"
)

// ---- property graphs ----

// Graph is a property graph: labeled nodes with attribute maps, and
// labeled directed edges (Section 2 of the paper).
type Graph = graph.Graph

// NodeID identifies a node of a Graph.
type NodeID = graph.NodeID

// Label is a node or edge label; Wildcard matches any label.
type Label = graph.Label

// Attr is an attribute name.
type Attr = graph.Attr

// Value is an attribute value: a string or a number.
type Value = graph.Value

// GraphEdge is one directed labeled edge of a Graph.
type GraphEdge = graph.Edge

// Snapshot is a frozen, read-optimized view of a Graph, built with
// Graph.Freeze(): labels, attribute names and values interned into
// dense ints, CSR adjacency grouped and sorted by edge label, per-label
// node postings, degree statistics, and value postings for the
// (attribute, value) pairs looked up on it. Snapshots are immutable and
// safe for concurrent readers; a Session holds one per graph and
// advances it by deltas, so most callers never build one explicitly.
type Snapshot = graph.Snapshot

// Delta is an add-only batch of graph changes between two values of
// Graph.Version: added nodes and edges plus attribute writes.
// Graph.DeltaSince captures one from the graph's own change journal;
// Snapshot.Apply consumes it to advance a frozen snapshot in time
// proportional to the delta, and Session.Apply drives the whole
// incremental-validation pipeline from it.
type Delta = graph.Delta

// NodeAdd is one added node of a Delta.
type NodeAdd = graph.NodeAdd

// AttrWrite is one attribute write of a Delta.
type AttrWrite = graph.AttrWrite

// GraphImage is a flat, arena-style export of a Graph: symbol tables
// plus fixed-width columnar rows for nodes, edges and attributes. It is
// the payload of a persist checkpoint file — the numeric columns can be
// aliased directly onto mmap'd bytes and handed to ImportImage.
type GraphImage = graph.Image

// Wildcard is the special label '_' that matches any label.
const Wildcard = graph.Wildcard

// NewGraph returns an empty property graph.
func NewGraph() *Graph { return graph.New() }

// ExportImage flattens g into a GraphImage (deterministic: identical
// graphs export identical images). A Snapshot exports the same image of
// the graph it reflects with its Image method, reading its own immutable
// columns, so it may run beside the writers that move the graph on.
func ExportImage(g *Graph) *GraphImage { return graph.ImageOf(g) }

// ImportImage rebuilds the exported graph. Every index is bounds
// checked, so a corrupted image yields an error, never a panic. The
// rebuilt graph's version counter and journal base are the image's
// version, so deltas recorded after the export still compose.
func ImportImage(img *GraphImage) (*Graph, error) { return graph.FromImage(img) }

// String wraps a string attribute value.
func String(s string) Value { return graph.String(s) }

// Number wraps a numeric attribute value.
func Number(f float64) Value { return graph.Number(f) }

// Int wraps an integer attribute value (stored as a number).
func Int(i int) Value { return graph.Int(i) }

// Bool wraps a boolean attribute value as the number 0 or 1, matching
// the paper's examples.
func Bool(b bool) Value { return graph.Bool(b) }

// ---- patterns and matches ----

// Pattern is a graph pattern Q[x̄]: variables with (possibly wildcard)
// labels, connected by labeled edges.
type Pattern = pattern.Pattern

// Var is a pattern variable.
type Var = pattern.Var

// Match is a homomorphism h(x̄) from a pattern's variables to nodes.
type Match = pattern.Match

// NewPattern returns an empty pattern; chain AddVar and AddEdge to
// build it.
func NewPattern() *Pattern { return pattern.New() }

// ---- rules (GEDs, GDCs, GED∨s) and literals ----

// Rule is a graph entity dependency φ = Q[x̄](X → Y): whenever the
// pattern matches and the antecedent X holds, the consequent Y must
// hold. The same type carries the extensions of Section 7: a GDC's
// literals compare with any Op, and a GED∨'s consequent is Disjunctive
// (some literal of Y must hold). The chase, Repair, Prove and
// OptimizeQuery take GEDs only; every other method takes all three.
type Rule = ged.GED

// RuleSet is a set Σ of rules.
type RuleSet = ged.Set

// Literal is one (in)equality of a rule: x.A = c, x.A = y.B, or
// x.id = y.id (GDCs additionally use ordered comparisons).
type Literal = ged.Literal

// Operand is one side of a literal.
type Operand = ged.Operand

// Op is a literal's comparison predicate. Plain GEDs use only OpEq.
type Op = ged.Op

// LiteralKind discriminates constant, variable and id literals.
type LiteralKind = ged.LiteralKind

// Comparison predicates.
const (
	OpEq = ged.OpEq
	OpNe = ged.OpNe
	OpLt = ged.OpLt
	OpLe = ged.OpLe
	OpGt = ged.OpGt
	OpGe = ged.OpGe
)

// Literal kinds, as reported by Literal.Kind.
const (
	ConstLiteral = ged.ConstLiteral
	VarLiteral   = ged.VarLiteral
	IDLiteral    = ged.IDLiteral
)

// NewRule returns the rule Q[x̄](X → Y).
func NewRule(name string, q *Pattern, x, y []Literal) *Rule { return ged.New(name, q, x, y) }

// NewKey builds a (possibly recursive) graph key for the entities
// matched by x0 in q: the pattern is doubled into Q ∪ Q', and the key
// asserts x0.id = x0'.id whenever buildX's literals hold between the two
// copies. buildX is called once per variable of q with the original
// variable and its copy.
func NewKey(name string, q *Pattern, x0 Var, buildX func(x, fx Var) []Literal) (*Rule, error) {
	return ged.NewGKey(name, q, x0, buildX)
}

// IsKey reports whether the rule has the syntactic shape of a graph key.
func IsKey(r *Rule) bool { return ged.IsGKey(r) }

// ConstLit returns the literal x.A = c.
func ConstLit(x Var, a Attr, c Value) Literal { return ged.ConstLit(x, a, c) }

// VarLit returns the literal x.A = y.B.
func VarLit(x Var, a Attr, y Var, b Attr) Literal { return ged.VarLit(x, a, y, b) }

// IDLit returns the literal x.id = y.id.
func IDLit(x, y Var) Literal { return ged.IDLit(x, y) }

// Cmp returns the comparison literal x.A op c (a GDC literal for
// op != OpEq).
func Cmp(x Var, a Attr, op Op, c Value) Literal { return ged.Cmp(x, a, op, c) }

// CmpVars returns the comparison literal x.A op y.B.
func CmpVars(x Var, a Attr, op Op, y Var, b Attr) Literal { return ged.CmpVars(x, a, op, y, b) }

// False returns the consequent desugaring of the Boolean constant false
// anchored at variable y: a rule with this consequent forbids its
// antecedent.
func False(y Var) []Literal { return ged.False(y) }

// ---- analysis results ----

// Violation is one witness that a graph violates a rule: the match, and
// the first consequent literal it fails.
type Violation = reason.Violation

// SatResult reports a satisfiability analysis; Model is its witness.
type SatResult = gdc.SatResult

// ImplResult reports an implication analysis Σ ⊨ φ.
type ImplResult = gdc.ImplResult

// ChaseResult is the outcome of chasing a graph with a rule set
// (Theorem 1: it is order-independent): the relation Eq and the steps
// that built it. Consistent() distinguishes a terminal chase from the
// paper's ⊥. The graphs derived from Eq are built only on request, from
// the snapshot the chase froze, so later mutations of the chased graph
// do not reach them: Coercion() is the coercion G_Eq (built once, nil
// for ⊥), Quotient() its attribute-free snapshot, and Materialize() a
// concrete model witness.
type ChaseResult = chase.Result

// Conflict explains an inconsistent chase: the two facts that clashed.
type Conflict = chase.Conflict

// RepairResult reports a chase-based repair: the repaired graph and the
// canonical edit script, or the conflict that makes the data
// unrepairable.
type RepairResult = repair.Result

// RepairEdit is one entry of a repair's edit script.
type RepairEdit = repair.Edit

// Proof is a machine-checkable derivation in the finite axiom system
// A_GED (Section 7).
type Proof = axiom.Proof

// Discovered is a mined rule with its support.
type Discovered = discover.Discovered

// DiscoverOptions tunes rule mining.
type DiscoverOptions = discover.Options

// Query is a pattern query with an optional conjunctive selection.
type Query = optimize.Query

// RewriteResult is the optimized form of a query: a smaller pattern,
// inferred constant selections, or a proof the query is empty on every
// graph satisfying Σ.
type RewriteResult = optimize.Result

// Validator is a prepared, attribute-indexed validator for repeated
// validation of one graph under one rule set.
type Validator = reason.Validator

// NewSnapshotValidator prepares a validator over an immutable snapshot
// (g.Freeze(), or a Session's), sharing it instead of copying. The
// validator is safe for concurrent use, never touches the mutable
// graph, and Rebase follows a delta-advanced snapshot at the cost of
// the rule set; Session.Validator is the one a session maintains.
func NewSnapshotValidator(snap *Snapshot, sigma RuleSet) *Validator {
	return reason.NewValidatorOn(snap, sigma)
}

// ---- convenience decision shortcuts (context-free) ----

// Satisfies reports g ⊨ Σ, freezing g once. For cancellation and
// parallelism use Engine.Validate.
func Satisfies(g *Graph, sigma RuleSet) bool { return reason.Satisfies(g, sigma) }

// IsModel reports whether g is a model of Σ: g ⊨ Σ and every pattern of
// Σ has a match in g (the strong satisfiability of Section 5.1).
func IsModel(g *Graph, sigma RuleSet) bool { return reason.IsModel(g, sigma) }

// Answers evaluates a query on a graph: the matches of its pattern that
// satisfy its selection.
func Answers(q *Query, g *Graph) []Match { return optimize.Answers(q, g) }
