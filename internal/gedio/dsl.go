package gedio

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// The dependency DSL, one rule per `ged` block:
//
//	# a video game can only be created by programmers
//	ged phi1 on (x:person)-[create]->(y:product) {
//	  when y.type = "video game"
//	  then x.type = "programmer"
//	}
//
//	ged twoCapitals on (x:country)-[capital]->(y:city), (x)-[capital]->(z:city) {
//	  then y.name = z.name
//	}
//
//	ged domain on (x:account) {
//	  then x.flag = 0 or x.flag = 1        # disjunction → GED∨
//	}
//
//	ged bound on (x:emp) {
//	  when x.salary > 100                  # built-in predicate → GDC
//	  then false
//	}
//
// Patterns are comma-separated edge chains; a node is (var:label), with
// `_` for the wildcard and the label defaulting to `_` when omitted on
// re-mention. `when` (optional) introduces the antecedent, `then` the
// consequent; literals are `x.attr OP value`, `x.attr OP y.attr` or
// `x.id = y.id` with OP among = != < <= > >=; `false` desugars to the
// paper's two-constant encoding; `or` makes the consequent disjunctive.
// A disjunction of any length, empty or of one literal included, is also
// written `then or(l₁, …, lₖ)`; `then or()` is the empty disjunction,
// false as a GED∨.
// String constants are Go-quoted: escapes decode as strconv.Unquote
// reads them.

// ---- lexer ----

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokString
	tokNumber
	tokPunct // single/multi-char punctuation, stored in text
)

type token struct {
	kind tokKind
	text string
	num  float64
	line int
}

type lexer struct {
	src  []rune
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: []rune(src), line: 1} }

func (l *lexer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("gedio: line %d: %s", l.line, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case unicode.IsSpace(c):
			l.pos++
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: l.line}, nil

scan:
	c := l.src[l.pos]
	start := l.pos
	switch {
	case unicode.IsLetter(c) || c == '_':
		for l.pos < len(l.src) && (unicode.IsLetter(l.src[l.pos]) || unicode.IsDigit(l.src[l.pos]) || l.src[l.pos] == '_' || l.src[l.pos] == '\'') {
			l.pos++
		}
		return token{kind: tokIdent, text: string(l.src[start:l.pos]), line: l.line}, nil
	case unicode.IsDigit(c) || (c == '-' && l.pos+1 < len(l.src) && unicode.IsDigit(l.src[l.pos+1])):
		l.pos++
		for l.pos < len(l.src) && (unicode.IsDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
			// A '.' followed by a non-digit terminates the number (it is
			// the attribute accessor).
			if l.src[l.pos] == '.' && (l.pos+1 >= len(l.src) || !unicode.IsDigit(l.src[l.pos+1])) {
				break
			}
			l.pos++
		}
		f, err := strconv.ParseFloat(string(l.src[start:l.pos]), 64)
		if err != nil {
			return token{}, l.errf("bad number %q", string(l.src[start:l.pos]))
		}
		return token{kind: tokNumber, num: f, text: string(l.src[start:l.pos]), line: l.line}, nil
	case c == '"':
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			if l.src[l.pos] == '\\' && l.pos+1 < len(l.src) {
				l.pos++
			}
			if l.src[l.pos] == '\n' {
				return token{}, l.errf("unterminated string")
			}
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, l.errf("unterminated string")
		}
		l.pos++
		text, err := strconv.Unquote(string(l.src[start:l.pos]))
		if err != nil {
			return token{}, l.errf("bad string %s", string(l.src[start:l.pos]))
		}
		return token{kind: tokString, text: text, line: l.line}, nil
	default:
		two := ""
		if l.pos+1 < len(l.src) {
			two = string(l.src[l.pos : l.pos+2])
		}
		switch two {
		case "->", "!=", "<=", ">=":
			l.pos += 2
			return token{kind: tokPunct, text: two, line: l.line}, nil
		}
		l.pos++
		return token{kind: tokPunct, text: string(c), line: l.line}, nil
	}
}

// ---- parser ----

type parser struct {
	lex  *lexer
	tok  token
	prev token
}

// Parse parses a DSL document into rules of all three forms. It checks
// syntax only; ged.Set.Validate checks that the rules are well-formed.
func Parse(src string) (ged.Set, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	var rules ged.Set
	for p.tok.kind != tokEOF {
		r, err := p.rule()
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}

func (p *parser) advance() error {
	p.prev = p.tok
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("gedio: line %d: %s", p.tok.line, fmt.Sprintf(format, args...))
}

func (p *parser) expectIdent(word string) error {
	if p.tok.kind != tokIdent || p.tok.text != word {
		return p.errf("expected %q, got %q", word, p.tok.text)
	}
	return p.advance()
}

func (p *parser) expectPunct(s string) error {
	if p.tok.kind != tokPunct || p.tok.text != s {
		return p.errf("expected %q, got %q", s, p.tok.text)
	}
	return p.advance()
}

func (p *parser) rule() (*ged.GED, error) {
	if err := p.expectIdent("ged"); err != nil {
		return nil, err
	}
	if p.tok.kind != tokIdent {
		return nil, p.errf("expected rule name")
	}
	r := ged.New(p.tok.text, pattern.New(), nil, nil)
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectIdent("on"); err != nil {
		return nil, err
	}
	if err := p.patternClause(r); err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	if p.tok.kind == tokIdent && p.tok.text == "when" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		lits, _, err := p.literalList(false)
		if err != nil {
			return nil, err
		}
		r.X = lits
	}
	if p.tok.kind == tokIdent && p.tok.text == "then" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		var lits []ged.Literal
		var disj bool
		var err error
		if p.tok.kind == tokIdent && p.tok.text == "or" && p.peek().text == "(" {
			lits, err = p.disjunction()
			disj = true
		} else {
			lits, disj, err = p.literalList(true)
		}
		if err != nil {
			return nil, err
		}
		r.Y = lits
		r.Disjunctive = disj
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	fixFalseAnchors(r)
	return r, nil
}

// patternClause parses comma-separated node/edge chains.
func (p *parser) patternClause(r *ged.GED) error {
	for {
		v, err := p.node(r)
		if err != nil {
			return err
		}
		for p.tok.kind == tokPunct && p.tok.text == "-" {
			if err := p.advance(); err != nil {
				return err
			}
			if err := p.expectPunct("["); err != nil {
				return err
			}
			var label graph.Label
			switch p.tok.kind {
			case tokIdent:
				label = graph.Label(p.tok.text)
			default:
				return p.errf("expected edge label")
			}
			if err := p.advance(); err != nil {
				return err
			}
			if err := p.expectPunct("]"); err != nil {
				return err
			}
			if err := p.expectPunct("->"); err != nil {
				return err
			}
			dst, err := p.node(r)
			if err != nil {
				return err
			}
			r.Pattern.AddEdge(v, label, dst)
			v = dst
		}
		if p.tok.kind == tokPunct && p.tok.text == "," {
			if err := p.advance(); err != nil {
				return err
			}
			continue
		}
		return nil
	}
}

// node parses (var[:label]).
func (p *parser) node(r *ged.GED) (pattern.Var, error) {
	if err := p.expectPunct("("); err != nil {
		return "", err
	}
	if p.tok.kind != tokIdent {
		return "", p.errf("expected variable name")
	}
	v := pattern.Var(p.tok.text)
	if err := p.advance(); err != nil {
		return "", err
	}
	label := graph.Wildcard
	if p.tok.kind == tokPunct && p.tok.text == ":" {
		if err := p.advance(); err != nil {
			return "", err
		}
		if p.tok.kind != tokIdent {
			return "", p.errf("expected label")
		}
		label = graph.Label(p.tok.text)
		if err := p.advance(); err != nil {
			return "", err
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return "", err
	}
	if r.Pattern.HasVar(v) {
		if label != graph.Wildcard && r.Pattern.Label(v) != label {
			return "", p.errf("variable %s relabeled", v)
		}
		return v, nil
	}
	r.Pattern.AddVar(v, label)
	return v, nil
}

// falseInOr rejects `false` as a disjunct: it desugars to two literals
// (x._F = 0 and x._F = 1), which a disjunction would no longer forbid
// together.
const falseInOr = "`false` inside or(): the empty or() is false"

// literalList parses literals separated by `and` (or `or` when allowOr);
// mixing the two in one list is rejected, and so is `false` between
// `or`s.
func (p *parser) literalList(allowOr bool) ([]ged.Literal, bool, error) {
	var lits []ged.Literal
	disj, sawFalse := false, false
	first := true
	for {
		isFalse := p.tok.kind == tokIdent && p.tok.text == "false"
		if isFalse && disj {
			return nil, false, p.errf(falseInOr)
		}
		sawFalse = sawFalse || isFalse
		ls, err := p.literal()
		if err != nil {
			return nil, false, err
		}
		lits = append(lits, ls...)
		isSep := p.tok.kind == tokIdent && (p.tok.text == "and" || p.tok.text == "or")
		if !isSep {
			return lits, disj, nil
		}
		isOr := p.tok.text == "or"
		if isOr && !allowOr {
			return nil, false, p.errf("`or` is only allowed in the consequent")
		}
		if !first && isOr != disj {
			return nil, false, p.errf("cannot mix `and` and `or` in one clause")
		}
		if isOr && sawFalse {
			return nil, false, p.errf(falseInOr)
		}
		disj = isOr
		first = false
		if err := p.advance(); err != nil {
			return nil, false, err
		}
	}
}

// disjunction parses `or(l₁, …, lₖ)`, k ≥ 0.
func (p *parser) disjunction() ([]ged.Literal, error) {
	if err := p.expectIdent("or"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var lits []ged.Literal
	for p.tok.kind != tokPunct || p.tok.text != ")" {
		if len(lits) > 0 {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
		if p.tok.kind == tokIdent && p.tok.text == "false" {
			return nil, p.errf(falseInOr)
		}
		l, err := p.literal()
		if err != nil {
			return nil, err
		}
		lits = append(lits, l...)
	}
	return lits, p.advance()
}

// peek returns the token after the current one.
func (p *parser) peek() token {
	l := *p.lex
	t, _ := l.next()
	return t
}

// literal parses one literal (or `false`).
func (p *parser) literal() ([]ged.Literal, error) {
	if p.tok.kind == tokIdent && p.tok.text == "false" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		return ged.False("x_false"), nil
	}
	left, err := p.operand()
	if err != nil {
		return nil, err
	}
	op, err := p.op()
	if err != nil {
		return nil, err
	}
	right, err := p.operand()
	if err != nil {
		return nil, err
	}
	return []ged.Literal{{Left: left, Right: right, Op: op}}, nil
}

func (p *parser) op() (ged.Op, error) {
	if p.tok.kind != tokPunct {
		return 0, p.errf("expected comparison operator, got %q", p.tok.text)
	}
	for op := ged.OpEq; op <= ged.OpGe; op++ {
		if op.String() == p.tok.text {
			return op, p.advance()
		}
	}
	return 0, p.errf("unknown operator %q", p.tok.text)
}

func (p *parser) operand() (ged.Operand, error) {
	switch p.tok.kind {
	case tokNumber:
		v := graph.Number(p.tok.num)
		return ged.Const(v), p.advance()
	case tokString:
		v := graph.String(p.tok.text)
		return ged.Const(v), p.advance()
	case tokIdent:
		v := pattern.Var(p.tok.text)
		if err := p.advance(); err != nil {
			return ged.Operand{}, err
		}
		if err := p.expectPunct("."); err != nil {
			return ged.Operand{}, err
		}
		if p.tok.kind != tokIdent {
			return ged.Operand{}, p.errf("expected attribute name")
		}
		attr := p.tok.text
		if err := p.advance(); err != nil {
			return ged.Operand{}, err
		}
		if attr == "id" {
			return ged.ID(v), nil
		}
		return ged.AttrOf(v, graph.Attr(attr)), nil
	default:
		return ged.Operand{}, p.errf("expected operand, got %q", p.tok.text)
	}
}

// fixFalseAnchors rewrites the placeholder variable of a bare `false`
// consequent to the rule pattern's first variable.
func fixFalseAnchors(r *ged.GED) {
	if len(r.Pattern.Vars()) == 0 {
		return
	}
	anchor := r.Pattern.Vars()[0]
	for i, l := range r.Y {
		if l.Left.Kind == ged.OperandAttr && l.Left.Var == "x_false" {
			l.Left.Var = anchor
			r.Y[i] = l
		}
	}
}

// Format renders rules back into DSL text that Parse reads back as the
// same rules, Disjunctive bit included: a disjunction of two or more
// literals as `then l₁ or l₂ …`, a shorter one as `then or(l)` or
// `then or()`.
func Format(rules ged.Set) string {
	var b strings.Builder
	for i, r := range rules {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "ged %s on %s {\n", r.Name, r.Pattern)
		if len(r.X) > 0 {
			b.WriteString("  when ")
			writeLits(&b, r.X, " and ")
			b.WriteString("\n")
		}
		switch {
		case r.Disjunctive && len(r.Y) < 2:
			b.WriteString("  then or(")
			writeLits(&b, r.Y, ", ")
			b.WriteString(")\n")
		case len(r.Y) > 0:
			sep := " and "
			if r.Disjunctive {
				sep = " or "
			}
			b.WriteString("  then ")
			writeLits(&b, r.Y, sep)
			b.WriteString("\n")
		}
		b.WriteString("}\n")
	}
	return b.String()
}

func writeLits(b *strings.Builder, lits []ged.Literal, sep string) {
	for i, l := range lits {
		if i > 0 {
			b.WriteString(sep)
		}
		fmt.Fprintf(b, "%s %s %s", operandDSL(l.Left), l.Op, operandDSL(l.Right))
	}
}

// operandDSL renders an operand as the lexer reads it back: numbers
// without an exponent, strings Go-quoted.
func operandDSL(o ged.Operand) string {
	if o.Kind == ged.OperandConst && o.Const.IsNumber() {
		return strconv.FormatFloat(o.Const.Num(), 'f', -1, 64)
	}
	return o.String()
}
