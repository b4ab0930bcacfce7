package gedlib

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"time"
	"weak"

	"gedlib/internal/axiom"
	"gedlib/internal/chase"
	"gedlib/internal/discover"
	"gedlib/internal/gdc"
	"gedlib/internal/ged"
	"gedlib/internal/obs"
	"gedlib/internal/optimize"
	"gedlib/internal/repair"
)

// ErrChaseDepthExceeded is returned by Engine methods when a chase did
// not converge within the bound set by WithChaseDepth.
var ErrChaseDepthExceeded = chase.ErrDepthExceeded

// ErrNotGED is wrapped by the errors of Chase, Repair, Prove, CheckProof
// and OptimizeQuery, defined for GEDs only, when handed a GDC or a GED∨.
var ErrNotGED = ged.ErrNotGED

// ErrNoWitness is CheckSat's and Implies's one undecided case: a value
// bounded by two strings with no string between them (see README).
var ErrNoWitness = gdc.ErrNoWitness

// Engine is the entry point of the library: one configured instance of
// the paper's analyses. Every method takes a context.Context first and
// honors its cancellation mid-run — the heavy loops (match enumeration,
// chase rounds, worker pools) check the context cooperatively and
// return its error, so a server can bound each request with
// context.WithTimeout.
//
// An Engine is cheap, configured once at New, and safe for concurrent
// use. Per-graph state lives in a Session, which Open creates and the
// caller owns (a serving catalog keeps one per graph):
//
//	s, err := eng.Open(ctx, g, sigma) // one freeze
//	... mutate g ...
//	vs, err := s.CatchUp(ctx, g, nil) // by g's journal, or a re-freeze
//
// A caller that ships deltas instead of the graph — a WAL follower —
// hands them to s.Apply.
//
// The graph-keyed methods (Validate, ValidateIncremental, Apply,
// Satisfies, Discover) are a thin shim for callers holding only a
// *Graph: one session per graph, keyed weakly so that a collected graph
// takes its session with it, and caught up before each call by the
// graph's change journal (Session.CatchUp). Only Apply switches the
// session to the call's rules (Session.SetRules); the read-only methods
// validate the call's own rules and leave the maintained set alone, so
// concurrent calls with different rule sets never see each other's.
type Engine struct {
	workers        int
	violationLimit int
	chaseDepth     int

	// obs is the injected observer (WithObserver), nil by default; em
	// caches its metric handles so hot paths skip the registry lookup.
	obs *Observer
	em  *engineMetrics

	// mu guards the shim's sessions; a runtime cleanup deletes an entry
	// once its graph is collected.
	mu       sync.Mutex
	sessions map[weak.Pointer[Graph]]*Session
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers sets how many goroutines Validate (and the first Apply's
// seeding validation) uses. 1 (the default) validates sequentially;
// larger values cut each rule's sequential search into morsels of its
// first-level candidates that n workers pull; n <= 0 selects
// GOMAXPROCS. The result — order and limit prefix included — is the
// sequential one for any worker count.
func WithWorkers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// WithViolationLimit bounds how many violations Validate and
// ValidateIncremental report. 0 (the default) reports all of them; a
// server that only needs "is it dirty, and roughly where" can cap the
// work.
func WithViolationLimit(n int) Option {
	return func(e *Engine) { e.violationLimit = n }
}

// WithChaseDepth bounds the number of fixpoint rounds of every chase
// the engine runs (Chase, Repair, CheckSat, Implies, Prove,
// OptimizeQuery). The chase always terminates (Theorem 1), so the bound
// is a resource valve for adversarial inputs, not a semantics knob; an
// exceeded bound surfaces as ErrChaseDepthExceeded. 0 (the default)
// means unbounded.
func WithChaseDepth(d int) Option {
	return func(e *Engine) { e.chaseDepth = d }
}

// New returns an Engine with the given options applied over the
// defaults: sequential validation, no violation limit, no chase bound.
func New(opts ...Option) *Engine {
	e := &Engine{
		workers:  1,
		sessions: make(map[weak.Pointer[Graph]]*Session),
	}
	for _, o := range opts {
		o(e)
	}
	e.em = newEngineMetrics(e.obs.Registry())
	return e
}

// lockSession returns the shim's session for g, locked and caught up to
// g's version (Session.CatchUp's rule; first contact freezes g); the
// caller unlocks it. Resolving the call's rules and reading the state
// under this one hold keeps concurrent calls with different rule sets
// on one graph apart.
func (e *Engine) lockSession(ctx context.Context, g *Graph) (*Session, error) {
	key := weak.Make(g)
	e.mu.Lock()
	s := e.sessions[key]
	if s == nil {
		s = &Session{eng: e}
		e.sessions[key] = s
		runtime.AddCleanup(g, e.dropSession, key)
	}
	e.mu.Unlock()
	s.mu.Lock()
	if err := s.syncLocked(ctx, g, nil); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	return s, nil
}

func (e *Engine) dropSession(key weak.Pointer[Graph]) {
	e.mu.Lock()
	delete(e.sessions, key)
	e.mu.Unlock()
}

// Validate finds the violations of Σ in g (Section 5.3): matches of a
// rule's pattern that satisfy its antecedent but fail a consequent
// literal. g ⊨ Σ iff the result is empty. Validation runs sequentially
// or data-parallel according to WithWorkers, and reports at most
// WithViolationLimit violations. For any worker count the order — and
// so the prefix a limit keeps — is rule by rule, each in its plan's
// enumeration order, which follows the planner (it prefers variables
// that close a literal, so a release may move it); Apply's results are
// in canonical order. The scan is violation-directed: a partial binding
// is abandoned once an antecedent literal over it fails or the
// consequent holds.
//
// On cancellation the violations found so far — a prefix of that
// order — are returned together with ctx's error.
func (e *Engine) Validate(ctx context.Context, g *Graph, sigma RuleSet) ([]Violation, error) {
	defer e.em.observe(e.em.validate, time.Now())
	s, err := e.lockSession(ctx, g)
	if err != nil {
		return nil, err
	}
	return s.validateUnlock(ctx, sigma)
}

// ValidateIncremental finds the violations of Σ whose match involves at
// least one of the touched nodes. After a localized update, every *new*
// violation touches an updated node, so re-checking only those matches
// replaces a full re-validation. The search runs over g's caught-up
// session snapshot with its prepared plans, so the steady-state call is
// proportional to the update, not the graph. For a maintained answer to
// "what are all current violations", use Apply instead.
func (e *Engine) ValidateIncremental(ctx context.Context, g *Graph, sigma RuleSet, touched []NodeID) ([]Violation, error) {
	defer e.em.observe(e.em.validateInc, time.Now())
	s, err := e.lockSession(ctx, g)
	if err != nil {
		return nil, err
	}
	val := s.validatorForLocked(sigma)
	s.mu.Unlock()
	return val.TouchingCtx(ctx, touched, e.violationLimit)
}

// Apply is Session.CatchUp for a caller holding only the graph: it feeds
// g's mutations since the previous graph-bound call to g's session and
// returns the complete current violation set of Σ. Rules are compared
// *by identity* (same rules, same order, same pointers): a call with
// other rules than the previous Apply's re-seeds the set under them, so
// passing a freshly rebuilt RuleSet on every call makes Apply no
// cheaper than Validate; build Σ once and reuse it. The slice is
// read-only, as Session.Apply's is.
func (e *Engine) Apply(ctx context.Context, g *Graph, sigma RuleSet) ([]Violation, error) {
	defer e.em.observe(e.em.apply, time.Now())
	s, err := e.lockSession(ctx, g)
	if err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	if !slices.Equal(s.sigma, sigma) {
		if err := s.setRulesLocked(ctx, sigma); err != nil {
			return nil, err
		}
	}
	return s.violationsLocked(ctx)
}

// limited applies the engine's violation limit to the maintained set
// without copying it. ViolationStore.Violations hands out a view it
// never writes again (a change builds the next one afresh), so the
// callers of Session.Apply, CatchUp and Violations share it read-only; a
// limit reslices it with the capacity clamped, so an append by the
// caller copies instead of writing into it.
func (e *Engine) limited(vs []Violation) []Violation {
	if n := e.violationLimit; n > 0 && len(vs) > n {
		return vs[:n:n]
	}
	return vs
}

// Satisfies reports g ⊨ Σ, stopping at the first violation.
func (e *Engine) Satisfies(ctx context.Context, g *Graph, sigma RuleSet) (bool, error) {
	s, err := e.lockSession(ctx, g)
	if err != nil {
		return false, err
	}
	val := s.validatorForLocked(sigma)
	s.mu.Unlock()
	vs, err := val.RunCtx(ctx, 1)
	return err == nil && len(vs) == 0, err
}

// Chase runs the revised chase of g by Σ (Theorem 1): the canonical,
// order-independent enforcement of every rule to a fixpoint. The input
// graph is not modified; the result's Materialize yields the quotient
// graph, and Consistent reports whether enforcement succeeded (an
// inconsistent chase is the paper's ⊥).
func (e *Engine) Chase(ctx context.Context, g *Graph, sigma RuleSet) (*ChaseResult, error) {
	defer e.em.observe(e.em.chase, time.Now())
	return chase.RunCtx(obs.ContextWithObserver(ctx, e.obs), g, sigma, nil, e.chaseDepth)
}

// Repair cleans g under Σ: the chase read as an edit script. Attribute
// equations fill in or correct values, id literals merge duplicate
// entities. The input graph is not modified. When no repair exists
// (e.g. a forbidding rule matched), the result carries the conflict for
// human resolution instead of silently choosing a side; that is not an
// error — the error reports only cancellation or an exceeded chase
// bound.
func (e *Engine) Repair(ctx context.Context, g *Graph, sigma RuleSet) (*RepairResult, error) {
	return repair.RunCtx(ctx, g, sigma, e.chaseDepth)
}

// CheckSat decides whether Σ (GEDs, GDCs and GED∨s mixed) has a model in
// which every pattern matches (Section 5.1), by the chase of G_Σ
// (Theorem 2) branching on GDCs and GED∨s (Theorems 8 and 9). Beyond
// ctx's error and ErrChaseDepthExceeded it fails only with ErrNoWitness.
func (e *Engine) CheckSat(ctx context.Context, sigma RuleSet) (*SatResult, error) {
	return gdc.CheckSat(ctx, sigma, e.chaseDepth)
}

// Implies decides Σ ⊨ φ for rules of any form by the chase of φ's pattern
// from its antecedent (Theorem 4), branching as CheckSat's does.
func (e *Engine) Implies(ctx context.Context, sigma RuleSet, phi *Rule) (*ImplResult, error) {
	return gdc.Implies(ctx, sigma, phi, e.chaseDepth)
}

// Prove constructs a machine-checkable A_GED derivation of Σ ⊢ φ
// (Theorem 7: the axiom system is sound and complete). It returns an
// error when Σ does not imply φ.
func (e *Engine) Prove(ctx context.Context, sigma RuleSet, phi *Rule) (*Proof, error) {
	return axiom.ProveCtx(ctx, sigma, phi, e.chaseDepth)
}

// CheckProof verifies an A_GED proof against Σ step by step, rejecting
// any tampered or ill-founded derivation.
func (e *Engine) CheckProof(ctx context.Context, sigma RuleSet, p *Proof) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return axiom.Check(sigma, p)
}

// Discover mines rules that hold exactly on g — the profiling
// counterpart of Validate — pruning every candidate implied by the
// rules already kept, as Section 5.2 motivates. Results are
// deterministic. WithChaseDepth bounds each pruning chase; a candidate
// whose implication check exceeds the bound is kept rather than
// guessed about.
func (e *Engine) Discover(ctx context.Context, g *Graph, opt DiscoverOptions) ([]Discovered, error) {
	s, err := e.lockSession(ctx, g)
	if err != nil {
		return nil, err
	}
	snap := s.snap
	s.mu.Unlock()
	return discover.GFDsOnCtx(ctx, g, snap, opt, e.chaseDepth)
}

// OptimizeQuery rewrites a pattern query under rules known to hold on
// the data: chase-identified variables merge (fewer joins), deduced
// constants become index-backed selections, and a contradictory query
// is proved empty without touching data.
func (e *Engine) OptimizeQuery(ctx context.Context, q *Query, sigma RuleSet) (*RewriteResult, error) {
	return optimize.RewriteCtx(ctx, q, sigma, e.chaseDepth)
}

// IsCancellation reports whether an error returned by an Engine method
// is a context cancellation or deadline expiry, as opposed to a
// resource-bound or input error.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
