package ged

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"gedlib/internal/graph"
)

// fmtValue, fmtOp, fmtOperand and fmtLiteral are the fmt formulations
// the String methods had before they were built by concatenation; the
// test below pins the two to the same text.
func fmtValue(v graph.Value) string {
	if v.IsNumber() {
		return strconv.FormatFloat(v.Num(), 'g', -1, 64)
	}
	return fmt.Sprintf("%q", v.Str())
}

func fmtOp(o Op) string {
	switch o {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return []string{"=", "!=", "<", "<=", ">", ">="}[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

func fmtOperand(o Operand) string {
	switch o.Kind {
	case OperandID:
		return string(o.Var) + ".id"
	case OperandAttr:
		return fmt.Sprintf("%s.%s", o.Var, o.Attr)
	default:
		return fmtValue(o.Const)
	}
}

func fmtLiteral(l Literal) string {
	return fmt.Sprintf("%s %s %s", fmtOperand(l.Left), fmtOp(l.Op), fmtOperand(l.Right))
}

func TestLiteralStringMatchesFmt(t *testing.T) {
	values := []graph.Value{
		graph.String(""),
		graph.String("video game"),
		graph.String(`say "hi"`),
		graph.String(`back\slash`),
		graph.String("tab\tnl\ncr\rnul\x00bell\x07del\x7f"),
		graph.String("héllo wörld ✓ 日本"),
		graph.String("bad \xff\xfe utf8 \xc3"),
		graph.String("sep\u2028para\u2029bom\ufeff"),
		graph.Int(0),
		graph.Number(math.Copysign(0, -1)),
		graph.Int(-3),
		graph.Number(0.1),
		graph.Number(1e21),
	}
	operands := []Operand{ID("x"), AttrOf("x", "type"), AttrOf("long_var", "a.b")}
	for _, v := range values {
		operands = append(operands, Const(v))
	}
	for _, v := range values {
		if got, want := v.String(), fmtValue(v); got != want {
			t.Errorf("Value %#v: String() = %q, fmt = %q", v, got, want)
		}
	}
	for _, o := range operands {
		if got, want := o.String(), fmtOperand(o); got != want {
			t.Errorf("Operand %#v: String() = %q, fmt = %q", o, got, want)
		}
	}
	ops := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, Op(6), Op(255)}
	for _, op := range ops {
		if got, want := op.String(), fmtOp(op); got != want {
			t.Errorf("Op %d: String() = %q, fmt = %q", op, got, want)
		}
		for _, left := range operands {
			for _, right := range operands {
				l := Literal{Left: left, Right: right, Op: op}
				if got, want := l.String(), fmtLiteral(l); got != want {
					t.Errorf("Literal %#v: String() = %q, fmt = %q", l, got, want)
				}
			}
		}
	}
	if got := ConstLit("x", "type", graph.String("programmer")).String(); got != `x.type = "programmer"` {
		t.Errorf("ConstLit renders %q", got)
	}
}
