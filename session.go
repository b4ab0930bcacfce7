package gedlib

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"gedlib/internal/graph"
	"gedlib/internal/reason"
)

// Session is one graph's maintained validation state under one rule
// set: a snapshot lineage, the prepared validator over its newest
// snapshot and the violation store Apply maintains. Engine.Open creates
// it; the caller owns it and hands it the graph's changes as deltas. A
// Session owns no goroutine or file, so dropping the last reference
// frees it.
//
// Sessions are safe for concurrent use; Apply and SetRules serialize.
type Session struct {
	eng *Engine

	mu    sync.Mutex
	sigma RuleSet
	snap  *Snapshot
	// val is the prepared validator for sigma, rebased onto snap on
	// demand (validatorLocked); once Apply maintains a store it is the
	// store's own.
	val *reason.Validator
	// store is the maintained violation set: nil until the first Apply.
	store *reason.ViolationStore
	// aside is the validator for asideSigma, the rules of the shim's
	// read-only calls when they are not sigma; rebased like val.
	aside      *reason.Validator
	asideSigma RuleSet
}

// Open freezes g once into a Session holding g's validation state under
// Σ. Later changes of g reach the session only through Apply.
func (e *Engine) Open(ctx context.Context, g *Graph, sigma RuleSet) (*Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := &Session{eng: e, sigma: sigma}
	s.freezeLocked(g)
	return s, nil
}

// freezeLocked puts the session on a fresh freeze of g, dropping
// whatever set it maintained.
func (s *Session) freezeLocked(g *Graph) {
	e := s.eng
	s.snap = g.Freeze()
	e.em.snapFreeze.Inc()
	s.val = e.compile(s.snap, s.sigma)
	s.store, s.aside = nil, nil
}

// compile prepares a validator for sigma over snap, reporting its match
// profiles into the engine's observer.
func (e *Engine) compile(snap *Snapshot, sigma RuleSet) *reason.Validator {
	val := reason.NewValidatorOn(snap, sigma)
	val.Observe(e.obs.Registry())
	return val
}

// Apply advances the session by d — the changes after the session
// snapshot's SourceVersion, from Graph.DeltaSince or a decoded WAL
// record — and returns the complete violation set of the session's
// rules in canonical order, truncated to WithViolationLimit. The slice
// is the session's own and read-only, as the Match maps in it already
// are: it is never rewritten (the next change makes a new one), and
// the caller must not write to it or sort it in place.
//
// The first Apply seeds the maintained set with one full validation.
// Every later one costs O(|Δ| + touched neighborhoods): the snapshot
// advances by Snapshot.Apply (no freeze), stored violations whose match
// d touches are re-checked, and the touched neighborhoods are searched
// for new ones. An empty d (the delta of an unchanged graph) only seeds
// or returns the set.
//
// A nil d fails with ErrNoDelta and leaves the session as it was: nil is
// what DeltaSince answers once the graph's journal no longer reaches
// back to the session snapshot, so the changes are unknown; open a new
// session on the graph instead.
//
// On error (cancellation mid-seed or mid-update) the snapshot has still
// advanced by d, but the maintained set is discarded and the next Apply
// re-seeds it; no partial set is returned.
func (s *Session) Apply(ctx context.Context, d *Delta) ([]Violation, error) {
	defer s.eng.em.observe(s.eng.em.apply, time.Now())
	if d == nil {
		return nil, ErrNoDelta
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.advanceLocked(ctx, d); err != nil {
		return nil, err
	}
	return s.violationsLocked(ctx)
}

// ErrNoDelta is Session.Apply's error for a nil delta.
var ErrNoDelta = errors.New("gedlib: no delta to apply: the graph's journal no longer reaches the session snapshot")

// Violations returns the maintained violation set as Apply does, for
// the session's current snapshot, without advancing it: the set Apply
// last returned, or one full validation seeding it when none has run
// yet (or a failed one dropped it).
func (s *Session) Violations(ctx context.Context) ([]Violation, error) {
	defer s.eng.em.observe(s.eng.em.apply, time.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.violationsLocked(ctx)
}

// syncLocked brings the shim's session to g's version: by g's delta
// since the session snapshot, or by a fresh freeze when the session has
// no snapshot yet or that delta is missing or rivals g (no dearer, and
// the freeze re-compacts the snapshot pages).
func (s *Session) syncLocked(ctx context.Context, g *Graph) error {
	if s.snap == nil {
		s.freezeLocked(g)
		return nil
	}
	from := s.snap.SourceVersion()
	if from == g.Version() {
		s.eng.em.snapHit.Inc()
		return nil
	}
	if d := g.DeltaSince(from); d != nil && d.Size() <= graph.CatchUpBound(g.Size()) {
		return s.advanceLocked(ctx, d)
	}
	s.freezeLocked(g)
	return nil
}

// advanceLocked moves the snapshot forward by d, and with it whatever
// maintained set is seeded.
func (s *Session) advanceLocked(ctx context.Context, d *Delta) error {
	if d.Empty() && d.ToVersion == s.snap.SourceVersion() {
		return nil
	}
	s.eng.em.snapAdvance.Inc()
	s.snap = s.snap.Apply(d)
	if s.store == nil {
		return nil
	}
	if err := s.store.Apply(ctx, s.snap, d.TouchedNodes()); err != nil {
		s.store = nil
		return err
	}
	s.val = s.store.Validator()
	return nil
}

// violationsLocked returns the maintained set, seeding it first when no
// Apply has yet (or a failed one dropped it).
func (s *Session) violationsLocked(ctx context.Context) ([]Violation, error) {
	e := s.eng
	if s.store == nil {
		st, err := e.seed(ctx, s.validatorLocked())
		if err != nil {
			return nil, err
		}
		s.store = st
	}
	return e.limited(s.store.Violations()), nil
}

// seed builds a maintained violation store from one full validation.
func (e *Engine) seed(ctx context.Context, val *reason.Validator) (*reason.ViolationStore, error) {
	st, err := reason.NewViolationStoreParallelCtx(ctx, val, e.workers)
	if err != nil {
		return nil, err
	}
	st.Observe(e.em.storeRecheck, e.em.storeDrop, e.em.storeFresh)
	return st, nil
}

// validatorLocked returns the session's validator bound to its current
// snapshot.
func (s *Session) validatorLocked() *reason.Validator {
	if s.val.Snapshot() != s.snap {
		s.val = s.val.Rebase(s.snap)
	}
	return s.val
}

// validatorForLocked returns a validator for sigma over the session
// snapshot without touching the session's rules or maintained set: its
// own for its rules, else the aside one — compiled once per rule set and
// rebased after, so callers alternating two rule sets reuse both plans.
func (s *Session) validatorForLocked(sigma RuleSet) *reason.Validator {
	if slices.Equal(s.sigma, sigma) {
		return s.validatorLocked()
	}
	if s.aside == nil || !slices.Equal(s.asideSigma, sigma) {
		s.aside, s.asideSigma = s.eng.compile(s.snap, sigma), sigma
	}
	s.aside = s.aside.Rebase(s.snap)
	return s.aside
}

// Validate finds the violations of the session's rules in its current
// snapshot, exactly as Engine.Validate documents — worker count,
// violation limit, result order, partial results on cancellation. It
// takes the snapshot and validator under the session lock and scans
// outside it.
func (s *Session) Validate(ctx context.Context) ([]Violation, error) {
	defer s.eng.em.observe(s.eng.em.validate, time.Now())
	s.mu.Lock()
	return s.validateUnlock(ctx, s.sigma)
}

// validateUnlock validates sigma over the session snapshot and releases
// s.mu, which the caller holds.
func (s *Session) validateUnlock(ctx context.Context, sigma RuleSet) ([]Violation, error) {
	e := s.eng
	val := s.validatorForLocked(sigma)
	s.mu.Unlock()
	return val.RunParallelCtx(ctx, e.violationLimit, e.workers)
}

// SetRules replaces the session's rule set. A maintained set that Apply
// has seeded is re-seeded under the new rules (one full validation)
// before anything is swapped, so SetRules is atomic: on error — a
// cancelled ctx included — the old rules and set stay.
func (s *Session) SetRules(ctx context.Context, sigma RuleSet) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.setRulesLocked(ctx, sigma)
}

func (s *Session) setRulesLocked(ctx context.Context, sigma RuleSet) error {
	val := s.eng.compile(s.snap, sigma)
	if s.store != nil {
		st, err := s.eng.seed(ctx, val)
		if err != nil {
			return err
		}
		s.store = st
	}
	s.sigma, s.val = sigma, val
	return nil
}

// Snapshot returns the session's current snapshot: immutable and safe
// for unsynchronized concurrent readers.
func (s *Session) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap
}

// Validator returns the prepared validator for the session's rules over
// Snapshot() — after Apply, the maintained store's own. Immutable and
// safe for concurrent use, it is what a serving layer publishes to its
// readers next to the snapshot.
func (s *Session) Validator() *Validator {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.validatorLocked()
}
