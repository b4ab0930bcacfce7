package reason

import (
	"slices"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// CompiledRule is one rule's X → Y lowered for evaluation on the
// matcher's dense binding vector (indexed like Pattern.Vars()): every
// literal carries the vector positions of its variables and the
// interned ids of its attributes in one snapshot lineage, so judging a
// match hashes neither a variable nor an attribute name. All three
// rule forms lower here: a GDC's literals compare with their Op, and a
// GED∨'s Y is read as a disjunction. The Validator and the
// ViolationStore judge matches with it; ged.Holds is its Match-map
// oracle. It is also the pattern.Pruner of the rule's full scans, over
// the conditions of CloseHints. Immutable.
type CompiledRule struct {
	d    *ged.GED
	x, y []clit
	// disj reads y as a disjunction, which a violation fails as a whole
	// and reports by its first disjunct.
	disj bool
	// px[k] indexes the x literal that pruning condition 1+k judges;
	// never marks a Y no match fails.
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

// The GDC literal shapes x.A ⊕ c and x.A ⊕ y.B for ⊕ other than =,
// beside the three GED kinds.
const (
	cmpConst = ged.IDLiteral + 1 + iota
	cmpVar
)

// notGED marks a malformed literal (ged.GED.Validate rejects it); it
// panics when evaluated, not when compiled.
const notGED = ged.LiteralKind(255)

// CompileRule lowers d's literals against snap.
func CompileRule(d *ged.GED, snap *graph.Snapshot) *CompiledRule {
	idx := varIndex(d.Pattern)
	y, disj := consequent(d)
	r := &CompiledRule{d: d, disj: disj, never: never(d)}
	lower := func(ls []ged.Literal) []clit {
		out := make([]clit, len(ls))
		for i := range ls {
			l := &ls[i]
			k, ok := l.Kind()
			switch {
			case ok:
			case l.Left.Kind == ged.OperandAttr && l.Right.Kind == ged.OperandConst:
				k = cmpConst
			case l.Left.Kind == ged.OperandAttr && l.Right.Kind == ged.OperandAttr:
				k = cmpVar
			default:
				k = notGED
			}
			out[i] = clit{kind: k, li: idx[l.Left.Var], ri: idx[l.Right.Var], src: l}
			if l.Left.Kind == ged.OperandAttr {
				out[i].la = r.attrID(snap, l.Left.Attr)
			}
			if l.Right.Kind == ged.OperandAttr {
				out[i].ra = r.attrID(snap, l.Right.Attr)
			}
		}
		return out
	}
	r.x, r.y = lower(d.X), lower(y)
	for i, l := range d.X {
		if !pushable(l) {
			r.px = append(r.px, i)
		}
	}
	return r
}

// consequent is d's Y as validation judges it, and whether it is a
// disjunction. An empty disjunction is false: it is judged as a
// forbidding GED's consequent, the false desugaring at d's first
// variable, so its violations name that desugaring's failing literal.
func consequent(d *ged.GED) ([]ged.Literal, bool) {
	if !d.Disjunctive || len(d.Y) > 0 {
		return d.Y, d.Disjunctive
	}
	var anchor pattern.Var
	if vs := d.Pattern.Vars(); len(vs) > 0 {
		anchor = vs[0]
	}
	return ged.False(anchor), false
}

// never reports that no match violates d: every literal of a
// conjunctive Y is trivial, or some disjunct of a disjunctive one is.
func never(d *ged.GED) bool {
	y, disj := consequent(d)
	if disj {
		return slices.ContainsFunc(y, func(l ged.Literal) bool { return !nontrivial(l) })
	}
	return !slices.ContainsFunc(y, nontrivial)
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
// literals aside; a disjunctive Y holds when one disjunct does) — a
// binding on which Y holds extends to no violation — then each variable
// or id literal of X — nor does one on which such a literal fails. X's
// constant literals are PushdownFilters' business: no enumerated
// binding fails them. Plans are compiled with the hints so that
// literals close early.
func CloseHints(d *ged.GED) [][]int {
	idx := varIndex(d.Pattern)
	reads := func(into []int, l ged.Literal) []int {
		for _, x := range l.Vars() {
			into = append(into, idx[x])
		}
		return into
	}
	hints := [][]int{nil}
	y, _ := consequent(d)
	for _, l := range y {
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
// when h ⊨ X and h ⊭ Y (a violation) it returns the literal failingY
// names, and nil otherwise. snap must belong to the lineage the rule was
// compiled or last rebound on.
func (r *CompiledRule) CheckMatch(snap *graph.Snapshot, bind []graph.NodeID) *ged.Literal {
	for i := range r.x {
		if !r.x[i].holds(snap, bind) {
			return nil
		}
	}
	return r.failingY(snap, bind)
}

// failingY returns the first consequent literal bind fails, if any; for
// a disjunctive Y, the first disjunct when bind fails every one.
func (r *CompiledRule) failingY(snap *graph.Snapshot, bind []graph.NodeID) *ged.Literal {
	if !r.disj {
		for i := range r.y {
			if !r.y[i].holds(snap, bind) {
				return r.y[i].src
			}
		}
		return nil
	}
	for i := range r.y {
		if r.y[i].holds(snap, bind) {
			return nil
		}
	}
	return r.y[0].src
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
	case cmpConst:
		if l.la < 0 {
			return false
		}
		v, ok := snap.AttrValueID(bind[l.li], l.la)
		return ok && l.src.Op.Eval(v, l.src.Right.Const)
	case cmpVar:
		if l.la < 0 || l.ra < 0 {
			return false
		}
		v1, ok1 := snap.AttrValueID(bind[l.li], l.la)
		v2, ok2 := snap.AttrValueID(bind[l.ri], l.ra)
		return ok1 && ok2 && l.src.Op.Eval(v1, v2)
	}
	panic("reason: malformed literal in validation")
}
