package reason

import (
	"slices"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// CompiledRule is one GED's X → Y lowered for evaluation on the
// matcher's dense binding vector (indexed like Pattern.Vars()): every
// literal carries the vector positions of its variables and the
// interned ids of its attributes in one snapshot lineage, so judging a
// match hashes neither a variable nor an attribute name. The Validator
// and the ViolationStore judge matches with it; ged.Holds is its
// Match-map oracle. It is also the pattern.Pruner of the rule's full
// scans, over the conditions of CloseHints. Immutable.
type CompiledRule struct {
	d    *ged.GED
	x, y []clit
	// px[k] indexes the x literal that pruning condition 1+k judges;
	// never marks a trivial Y, which no match fails.
	px    []int
	never bool
	// open lists the attributes no node carried at compile time (their
	// literals hold id -1); Rebind watches for them to appear.
	open []graph.Attr
}

// clit is one literal over binding-vector positions and attribute ids.
// An id of -1 means no node of the snapshot carries the attribute, so
// under the paper's existence semantics the literal cannot hold.
type clit struct {
	kind   ged.LiteralKind
	li, ri int
	la, ra int32
	src    *ged.Literal
}

// notGED marks a literal outside the three GED forms; it panics when
// evaluated, not when compiled.
const notGED = ged.LiteralKind(255)

// CompileRule lowers d's literals against snap.
func CompileRule(d *ged.GED, snap *graph.Snapshot) *CompiledRule {
	idx := varIndex(d.Pattern)
	r := &CompiledRule{d: d, never: !slices.ContainsFunc(d.Y, nontrivial)}
	lower := func(ls []ged.Literal) []clit {
		out := make([]clit, len(ls))
		for i := range ls {
			l := &ls[i]
			k, ok := l.Kind()
			if !ok {
				k = notGED
			}
			out[i] = clit{kind: k, li: idx[l.Left.Var], ri: idx[l.Right.Var], src: l}
			if k == ged.ConstLiteral || k == ged.VarLiteral {
				out[i].la = r.attrID(snap, l.Left.Attr)
			}
			if k == ged.VarLiteral {
				out[i].ra = r.attrID(snap, l.Right.Attr)
			}
		}
		return out
	}
	r.x, r.y = lower(d.X), lower(d.Y)
	for i, l := range d.X {
		if !pushable(l) {
			r.px = append(r.px, i)
		}
	}
	return r
}

func varIndex(p *pattern.Pattern) map[pattern.Var]int {
	idx := make(map[pattern.Var]int, len(p.Vars()))
	for i, x := range p.Vars() {
		idx[x] = i
	}
	return idx
}

// nontrivial reports that l is not x.id = x.id, which every match
// satisfies (x.A = x.A is nontrivial: it fails where x lacks A).
func nontrivial(l ged.Literal) bool {
	k, ok := l.Kind()
	return !ok || k != ged.IDLiteral || l.Left.Var != l.Right.Var
}

// CloseHints names what a full scan of d prunes on, as the positions in
// d.Pattern.Vars() each condition reads: first Y as a whole (its trivial
// literals aside) — a binding on which Y holds extends to no violation —
// then each variable or id literal of X — nor does one on which such a
// literal fails. X's constant literals are PushdownFilters' business: no
// enumerated binding fails them. Plans are compiled with the hints so
// that literals close early.
func CloseHints(d *ged.GED) [][]int {
	idx := varIndex(d.Pattern)
	reads := func(into []int, l ged.Literal) []int {
		for _, x := range l.Vars() {
			into = append(into, idx[x])
		}
		return into
	}
	hints := [][]int{nil}
	for _, l := range d.Y {
		if nontrivial(l) {
			hints[0] = reads(hints[0], l)
		}
	}
	for _, l := range d.X {
		if !pushable(l) {
			hints = append(hints, reads(nil, l))
		}
	}
	return hints
}

// Prune implements pattern.Pruner over CloseHints' conditions: bind is
// abandoned when Y has closed (bit 0) and holds, or a closed X literal
// fails.
func (r *CompiledRule) Prune(snap *graph.Snapshot, bind []graph.NodeID, mask uint64) bool {
	if mask&1 != 0 && r.failingY(snap, bind) == nil {
		return true
	}
	for k, xi := range r.px {
		if mask&(2<<k) != 0 && !r.x[xi].holds(snap, bind) {
			return true
		}
	}
	return false
}

func (r *CompiledRule) attrID(snap *graph.Snapshot, a graph.Attr) int32 {
	if id, ok := snap.AttrID(a); ok {
		return id
	}
	r.open = append(r.open, a)
	return -1
}

// Rebind returns the rule resolved against snap, a later snapshot of
// the lineage it was compiled on (one produced by Snapshot.Apply).
// Attribute ids are append-only within a lineage, so the receiver
// itself stays valid until a delta introduces one of its open
// attributes; only then is the rule compiled again.
func (r *CompiledRule) Rebind(snap *graph.Snapshot) *CompiledRule {
	for _, a := range r.open {
		if _, ok := snap.AttrID(a); ok {
			return CompileRule(r.d, snap)
		}
	}
	return r
}

// CheckMatch decides the match h(x̄) given as its dense binding vector:
// it returns the first consequent literal the match fails when h ⊨ X
// and h ⊭ Y (a violation), and nil otherwise. snap must belong to the
// lineage the rule was compiled or last rebound on.
func (r *CompiledRule) CheckMatch(snap *graph.Snapshot, bind []graph.NodeID) *ged.Literal {
	for i := range r.x {
		if !r.x[i].holds(snap, bind) {
			return nil
		}
	}
	return r.failingY(snap, bind)
}

// failingY returns the first consequent literal bind fails, if any.
func (r *CompiledRule) failingY(snap *graph.Snapshot, bind []graph.NodeID) *ged.Literal {
	for i := range r.y {
		if !r.y[i].holds(snap, bind) {
			return r.y[i].src
		}
	}
	return nil
}

func (l *clit) holds(snap *graph.Snapshot, bind []graph.NodeID) bool {
	switch l.kind {
	case ged.ConstLiteral:
		if l.la < 0 {
			return false
		}
		v, ok := snap.AttrValueID(bind[l.li], l.la)
		return ok && v.Equal(l.src.Right.Const)
	case ged.VarLiteral:
		if l.la < 0 || l.ra < 0 {
			return false
		}
		v1, ok1 := snap.AttrValueID(bind[l.li], l.la)
		v2, ok2 := snap.AttrValueID(bind[l.ri], l.ra)
		return ok1 && ok2 && v1.Equal(v2)
	case ged.IDLiteral:
		return bind[l.li] == bind[l.ri]
	}
	panic("reason: non-GED literal in validation")
}
