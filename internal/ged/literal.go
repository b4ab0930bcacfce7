// Package ged defines graph entity dependencies (GEDs) and their
// sub-classes, following Section 3 of "Dependencies for Graphs"
// (Fan & Lu, PODS 2017).
//
// A GED φ = Q[x̄](X → Y) pairs a graph pattern Q[x̄] (the topological
// constraint identifying entities) with an attribute dependency X → Y
// over equality literals of x̄. Literals come in three forms:
//
//   - constant literals  x.A = c
//   - variable literals  x.A = y.B
//   - id literals        x.id = y.id
//
// The package represents literals in a slightly generalized two-operand
// form. This accommodates (a) the intermediate literal shape c = x.A that
// the axiom system of Section 6 permits in proofs, and (b) the built-in
// predicates ≠, <, ≤, >, ≥ of the GDC extension (Section 7.1), so that
// the chase, validator and axiom machinery share one literal type.
package ged

import (
	"strconv"

	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// Op is a built-in comparison predicate. Plain GEDs use only OpEq;
// the other operators belong to the GDC extension.
type Op uint8

// The built-in predicates of Section 7.1.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator in DSL syntax.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return "op(" + strconv.Itoa(int(o)) + ")"
}

// Eval applies the predicate to two constants under the total order on U.
func (o Op) Eval(a, b graph.Value) bool {
	switch o {
	case OpEq:
		return a.Equal(b)
	case OpNe:
		return !a.Equal(b)
	case OpLt:
		return a.Less(b)
	case OpLe:
		return a.Less(b) || a.Equal(b)
	case OpGt:
		return b.Less(a)
	case OpGe:
		return b.Less(a) || a.Equal(b)
	}
	return false
}

// Flip returns the predicate with its operands swapped: a ⊕ b iff
// b ⊕.Flip() a.
func (o Op) Flip() Op {
	switch o {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return o // =, ≠ are symmetric
}

// Negate returns the complement predicate: a ⊕ b iff !(a ⊕.Negate() b).
func (o Op) Negate() Op {
	switch o {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	}
	return o
}

// OperandKind discriminates the three operand forms.
type OperandKind uint8

const (
	// OperandID is the node identity x.id of a variable.
	OperandID OperandKind = iota
	// OperandAttr is an attribute designator x.A.
	OperandAttr
	// OperandConst is a constant from U.
	OperandConst
)

// Operand is one side of a literal: a node id, an attribute designator,
// or a constant.
type Operand struct {
	Kind  OperandKind
	Var   pattern.Var // for OperandID and OperandAttr
	Attr  graph.Attr  // for OperandAttr
	Const graph.Value // for OperandConst
}

// ID returns the operand x.id.
func ID(x pattern.Var) Operand { return Operand{Kind: OperandID, Var: x} }

// AttrOf returns the operand x.A.
func AttrOf(x pattern.Var, a graph.Attr) Operand {
	return Operand{Kind: OperandAttr, Var: x, Attr: a}
}

// Const returns a constant operand.
func Const(v graph.Value) Operand { return Operand{Kind: OperandConst, Const: v} }

// String renders the operand in DSL syntax.
func (o Operand) String() string {
	switch o.Kind {
	case OperandID:
		return string(o.Var) + ".id"
	case OperandAttr:
		return string(o.Var) + "." + string(o.Attr)
	default:
		return o.Const.String()
	}
}

// Literal is an equality (or, for GDCs, comparison) literal l of x̄.
type Literal struct {
	Left  Operand
	Right Operand
	Op    Op
}

// ConstLit returns the constant literal x.A = c.
func ConstLit(x pattern.Var, a graph.Attr, c graph.Value) Literal {
	return Literal{Left: AttrOf(x, a), Right: Const(c), Op: OpEq}
}

// VarLit returns the variable literal x.A = y.B.
func VarLit(x pattern.Var, a graph.Attr, y pattern.Var, b graph.Attr) Literal {
	return Literal{Left: AttrOf(x, a), Right: AttrOf(y, b), Op: OpEq}
}

// IDLit returns the id literal x.id = y.id.
func IDLit(x, y pattern.Var) Literal {
	return Literal{Left: ID(x), Right: ID(y), Op: OpEq}
}

// Cmp returns the comparison literal x.A ⊕ c (GDC form).
func Cmp(x pattern.Var, a graph.Attr, op Op, c graph.Value) Literal {
	return Literal{Left: AttrOf(x, a), Right: Const(c), Op: op}
}

// CmpVars returns the comparison literal x.A ⊕ y.B (GDC form).
func CmpVars(x pattern.Var, a graph.Attr, op Op, y pattern.Var, b graph.Attr) Literal {
	return Literal{Left: AttrOf(x, a), Right: AttrOf(y, b), Op: op}
}

// Kind classifies the literal per Section 3 when it is a plain GED
// literal, and reports whether it is one. Non-equality operators and
// degenerate shapes (const = const, id-vs-attr, bare constants on the
// left with attribute on the right, etc.) are not GED literals; they
// arise only in GDCs or in intermediate proof steps.
func (l Literal) Kind() (LiteralKind, bool) {
	if l.Op != OpEq {
		return 0, false
	}
	switch {
	case l.Left.Kind == OperandAttr && l.Right.Kind == OperandConst:
		return ConstLiteral, true
	case l.Left.Kind == OperandAttr && l.Right.Kind == OperandAttr:
		return VarLiteral, true
	case l.Left.Kind == OperandID && l.Right.Kind == OperandID:
		return IDLiteral, true
	}
	return 0, false
}

// wellFormed reports that l is x.A ⊕ c, x.A ⊕ y.B or x.id = y.id: a
// literal of a GED, a GDC or a GED∨.
func (l Literal) wellFormed() bool {
	switch {
	case l.Left.Kind == OperandAttr && (l.Right.Kind == OperandConst || l.Right.Kind == OperandAttr):
		return l.Op <= OpGe
	case l.Left.Kind == OperandID && l.Right.Kind == OperandID:
		return l.Op == OpEq
	}
	return false
}

// LiteralKind is the paper's three-way literal classification.
type LiteralKind uint8

const (
	// ConstLiteral is x.A = c.
	ConstLiteral LiteralKind = iota
	// VarLiteral is x.A = y.B.
	VarLiteral
	// IDLiteral is x.id = y.id.
	IDLiteral
)

// Flip returns the literal with its operands exchanged (and the operator
// flipped accordingly). Flipping realizes rule GED3 of the axiom system.
func (l Literal) Flip() Literal {
	return Literal{Left: l.Right, Right: l.Left, Op: l.Op.Flip()}
}

// Negate returns the literal asserting the complement predicate. Used by
// the GDC solver when case-splitting on antecedent literals.
func (l Literal) Negate() Literal {
	return Literal{Left: l.Left, Right: l.Right, Op: l.Op.Negate()}
}

// Vars returns the pattern variables mentioned by the literal.
func (l Literal) Vars() []pattern.Var {
	var vs []pattern.Var
	if l.Left.Kind != OperandConst {
		vs = append(vs, l.Left.Var)
	}
	if l.Right.Kind != OperandConst && (len(vs) == 0 || l.Right.Var != vs[0]) {
		vs = append(vs, l.Right.Var)
	}
	return vs
}

// String renders the literal in DSL syntax.
func (l Literal) String() string {
	return l.Left.String() + " " + l.Op.String() + " " + l.Right.String()
}

// FalseAttr is the reserved attribute used to desugar the Boolean
// constant false: the paper treats Q[x̄](X → false) as syntactic sugar
// for a consequent containing y.A = c and y.A = d for distinct constants
// c, d (Section 3, "forbidding GEDs"). We reserve the attribute _F and
// the constants 0 and 1 for this purpose.
const FalseAttr graph.Attr = "_F"

// False returns the two-literal desugaring of the Boolean constant false
// anchored at variable y. Any match satisfying the antecedent is then a
// violation, and the chase becomes invalid when it is enforced — exactly
// the paper's semantics for forbidding constraints.
func False(y pattern.Var) []Literal {
	return []Literal{
		ConstLit(y, FalseAttr, graph.Int(0)),
		ConstLit(y, FalseAttr, graph.Int(1)),
	}
}

// IsFalse reports whether the literal set contains the reserved false
// desugaring (two distinct constants asserted on one _F attribute).
func IsFalse(lits []Literal) bool {
	seen := make(map[pattern.Var]graph.Value)
	for _, l := range lits {
		if l.Op != OpEq || l.Left.Kind != OperandAttr || l.Left.Attr != FalseAttr || l.Right.Kind != OperandConst {
			continue
		}
		if prev, ok := seen[l.Left.Var]; ok && !prev.Equal(l.Right.Const) {
			return true
		}
		seen[l.Left.Var] = l.Right.Const
	}
	return false
}

// Holds evaluates h(x̄) ⊨ l for the match m against the snapshot's
// stored attribute values, with the paper's existence semantics: a
// literal over a missing attribute is false. Attribute literals compare
// with l.Op.Eval — Value.Equal for OpEq, so on GED literals this is
// exactly Section 3's semantics — and id literals are node identity.
// It resolves variables and attributes by name on every call: it is the
// Match-map evaluator of the solvers and the test oracles, while
// validation judges dense binding vectors through reason.CompiledRule.
func Holds(snap *graph.Snapshot, l Literal, m pattern.Match) bool {
	switch {
	case l.Left.Kind == OperandID:
		return m[l.Left.Var] == m[l.Right.Var]
	case l.Right.Kind == OperandConst:
		v, ok := snap.Attr(m[l.Left.Var], l.Left.Attr)
		return ok && l.Op.Eval(v, l.Right.Const)
	default:
		v1, ok1 := snap.Attr(m[l.Left.Var], l.Left.Attr)
		v2, ok2 := snap.Attr(m[l.Right.Var], l.Right.Attr)
		return ok1 && ok2 && l.Op.Eval(v1, v2)
	}
}
