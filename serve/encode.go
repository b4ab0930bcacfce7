package serve

import (
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"gedlib"
)

// The two bodies that carry violations — a GET /violations page and a
// POST /validate answer — are appended into one []byte and written once.
// The bytes are exactly what encoding/json (SetEscapeHTML(false)) writes
// for the envelope maps with sorted keys and, per violation,
// {"rule":…,"match":{…},"literal":…}. What a violation's text needs of
// its rule — the name, the sorted match keys, the consequent literals —
// is rendered once per rule set (ruleText), so a violation costs appends
// only: no fmt, no reflection and no map built per violation.

// ruleText is the wire text of one rule set, rendered when the set is
// installed and published on every view maintained under it. Encoding
// never depends on it for correctness: a violation whose rule or literal
// it does not hold is rendered directly, to the same bytes.
type ruleText struct {
	rules []ruleWire
	// perViolation estimates one violation's encoded size, to size a
	// body's buffer up front.
	perViolation int
}

// ruleWire is one rule's pre-rendered text.
type ruleWire struct {
	rule *gedlib.Rule
	name string    // the JSON string of rule.Name
	vars []varWire // the pattern variables in byte order (encoding/json's map key order)
	lits []litWire // rule.Y
}

type varWire struct {
	v   gedlib.Var
	key string // `"x":`
}

type litWire struct {
	lit  *gedlib.Literal // an element of rule.Y
	text string          // the JSON string of lit.String()
}

// nameGuess is the node-name length the buffer estimate assumes.
const nameGuess = 16

func newRuleText(sigma gedlib.RuleSet) *ruleText {
	t := &ruleText{rules: make([]ruleWire, len(sigma))}
	for i, r := range sigma {
		rw := ruleWire{rule: r, name: string(appendJSONString(nil, r.Name))}
		vars := slices.Sorted(slices.Values(r.Pattern.Vars()))
		size := len(`{"rule":,"match":{},"literal":},`) + len(rw.name)
		for _, x := range vars {
			key := string(append(appendJSONString(nil, string(x)), ':'))
			rw.vars = append(rw.vars, varWire{v: x, key: key})
			size += len(key) + nameGuess + len(`"",`)
		}
		longest := 0
		for i := range r.Y {
			l := &r.Y[i]
			lw := litWire{lit: l, text: string(appendJSONString(nil, l.String()))}
			rw.lits = append(rw.lits, lw)
			longest = max(longest, len(lw.text))
		}
		t.rules[i] = rw
		t.perViolation = max(t.perViolation, size+longest)
	}
	return t
}

// rule returns the text of r, or nil when the table does not hold it.
// The search starts at *hint, where the previous violation's rule was
// found: violations arrive grouped by rule.
func (t *ruleText) rule(r *gedlib.Rule, hint *int) *ruleWire {
	if t == nil {
		return nil
	}
	n := len(t.rules)
	for k := range n {
		i := (*hint + k) % n
		if t.rules[i].rule == r {
			*hint = i
			return &t.rules[i]
		}
	}
	return nil
}

// bufSize estimates the encoded size of a body carrying n violations.
func (t *ruleText) bufSize(n int) int {
	per := 128
	if t != nil && t.perViolation > 0 {
		per = t.perViolation
	}
	return 64 + n*per
}

// writeViolationPage writes the body of GET /violations:
// {"epoch":…,"total":…,"version":…,"violations":[…]}.
func writeViolationPage(w http.ResponseWriter, view *View, total int, vs []gedlib.Violation) {
	bp := bodyBufs.Get().(*[]byte)
	buf := slices.Grow((*bp)[:0], view.text.bufSize(len(vs)))
	buf = append(buf, `{"epoch":`...)
	buf = strconv.AppendUint(buf, view.Epoch, 10)
	buf = append(buf, `,"total":`...)
	buf = strconv.AppendInt(buf, int64(total), 10)
	buf = append(buf, `,"version":`...)
	buf = strconv.AppendUint(buf, view.Version, 10)
	writeViolations(w, bp, buf, view, vs)
}

// writeTouching writes the body of POST /validate for requested nodes:
// {"count":…,"epoch":…,"violations":[…]}.
func writeTouching(w http.ResponseWriter, view *View, vs []gedlib.Violation) {
	bp := bodyBufs.Get().(*[]byte)
	buf := slices.Grow((*bp)[:0], view.text.bufSize(len(vs)))
	buf = append(buf, `{"count":`...)
	buf = strconv.AppendInt(buf, int64(len(vs)), 10)
	buf = append(buf, `,"epoch":`...)
	buf = strconv.AppendUint(buf, view.Epoch, 10)
	writeViolations(w, bp, buf, view, vs)
}

// bodyBufs recycles the bodies writeViolations writes, up to
// maxPooledBody bytes each: a page of 50 violations is about 8 KB, the
// larger part of what serving it allocates.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 64 << 10

// writeViolations completes a body whose earlier envelope fields are in
// buf with ,"violations":[…]} and the newline json.Encoder ends a value
// with, writes it in one Write, and returns buf to bodyBufs through bp.
func writeViolations(w http.ResponseWriter, bp *[]byte, buf []byte, view *View, vs []gedlib.Violation) {
	buf = append(buf, `,"violations":`...)
	buf = appendViolations(buf, view, vs)
	buf = append(buf, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
	if cap(buf) <= maxPooledBody {
		*bp = buf
		bodyBufs.Put(bp)
	}
}

// appendViolations appends vs as a JSON array of
// {"rule":…,"match":{…},"literal":…} with view's wire-format node names.
func appendViolations(buf []byte, view *View, vs []gedlib.Violation) []byte {
	buf = append(buf, '[')
	hint := 0
	for i := range vs {
		v := &vs[i]
		if i > 0 {
			buf = append(buf, ',')
		}
		rw := view.text.rule(v.GED, &hint)
		buf = append(buf, `{"rule":`...)
		if rw != nil {
			buf = append(buf, rw.name...)
		} else {
			buf = appendJSONString(buf, v.GED.Name)
		}
		buf = append(buf, `,"match":`...)
		buf = appendMatch(buf, rw, view.Names, v.Match)
		buf = append(buf, `,"literal":`...)
		buf = appendLiteral(buf, rw, v.Literal)
		buf = append(buf, '}')
	}
	return append(buf, ']')
}

// appendMatch appends m as a JSON object from variable to node name,
// keys in byte order. With the rule's text the keys are pre-rendered and
// walked in order; a match whose variables differ from the rule's is
// sorted here instead.
func appendMatch(buf []byte, rw *ruleWire, names *nameTable, m gedlib.Match) []byte {
	if rw != nil && len(rw.vars) == len(m) {
		mark := len(buf)
		buf = append(buf, '{')
		for i, x := range rw.vars {
			id, ok := m[x.v]
			if !ok {
				return appendMatchSorted(buf[:mark], names, m)
			}
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, x.key...)
			buf = names.appendName(buf, id)
		}
		return append(buf, '}')
	}
	return appendMatchSorted(buf, names, m)
}

func appendMatchSorted(buf []byte, names *nameTable, m gedlib.Match) []byte {
	vars := make([]gedlib.Var, 0, len(m))
	for x := range m {
		vars = append(vars, x)
	}
	slices.Sort(vars)
	buf = append(buf, '{')
	for i, x := range vars {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, string(x))
		buf = append(buf, ':')
		buf = names.appendName(buf, m[x])
	}
	return append(buf, '}')
}

// appendLiteral appends the JSON string of l.String(), pre-rendered when
// l is one of the rule's consequent literals: a violation's literal
// points into rule.Y, so the pointer finds it.
func appendLiteral(buf []byte, rw *ruleWire, l *gedlib.Literal) []byte {
	if rw != nil {
		for i := range rw.lits {
			if rw.lits[i].lit == l {
				return append(buf, rw.lits[i].text...)
			}
		}
	}
	return appendJSONString(buf, l.String())
}

// appendName appends the JSON string of NameOf(id) without building it:
// a named node's wire id, or "#id" for a node without one.
func (t *nameTable) appendName(buf []byte, id gedlib.NodeID) []byte {
	if id >= 0 && int(id) < len(t.byID) && t.byID[id] != "" {
		return appendJSONString(buf, t.byID[id])
	}
	buf = append(buf, `"#`...)
	buf = strconv.AppendInt(buf, int64(id), 10)
	return append(buf, '"')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string, byte for byte what
// encoding/json writes with SetEscapeHTML(false): `"` and `\` are
// backslash-escaped, \b \f \n \r \t get their short escapes and other
// control bytes \u00XX, invalid UTF-8 becomes \ufffd, and U+2028 and
// U+2029 are escaped. Runs that need no escaping are copied whole.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '"', '\\':
				buf = append(buf, '\\', b)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}
