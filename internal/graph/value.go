package graph

import "strconv"

// ValueKind discriminates the representation of a constant in the
// countably infinite domain U of the paper. Two kinds are supported:
// character strings and (double-precision) numbers. The domain is totally
// ordered and dense, which is what the GDC extension (Section 7.1)
// requires for its built-in predicates <, ≤, >, ≥ to be meaningful.
type ValueKind uint8

const (
	// KindString is a string constant.
	KindString ValueKind = iota
	// KindNumber is a numeric constant.
	KindNumber
)

// Value is a constant from the domain U. Values are comparable with ==
// (they are valid map keys) and totally ordered by Less: all numbers
// precede all strings, numbers order numerically and strings
// lexicographically. Both orders are dense and unbounded on their own
// kind, and the cross-kind gap never matters because equality across
// kinds is always false.
type Value struct {
	kind ValueKind
	str  string
	num  float64
}

// String returns a Value holding the string constant s.
func String(s string) Value { return Value{kind: KindString, str: s} }

// Number returns a Value holding the numeric constant f.
func Number(f float64) Value { return Value{kind: KindNumber, num: f} }

// Int returns a Value holding the numeric constant i.
func Int(i int) Value { return Value{kind: KindNumber, num: float64(i)} }

// Bool returns the conventional encoding of a boolean as a number:
// 1 for true and 0 for false. GEDs themselves have no boolean type; the
// paper's examples (e.g. x.is_fake = 1) use numeric flags.
func Bool(b bool) Value {
	if b {
		return Number(1)
	}
	return Number(0)
}

// Kind reports the representation kind of v.
func (v Value) Kind() ValueKind { return v.kind }

// Str returns the string payload of v. It is only meaningful when
// Kind() == KindString.
func (v Value) Str() string { return v.str }

// Num returns the numeric payload of v. It is only meaningful when
// Kind() == KindNumber.
func (v Value) Num() float64 { return v.num }

// IsNumber reports whether v is a numeric constant.
func (v Value) IsNumber() bool { return v.kind == KindNumber }

// Equal reports whether v and w are the same constant of U.
func (v Value) Equal(w Value) bool { return v == w }

// Less reports whether v strictly precedes w in the total order on U:
// numbers before strings, then the natural order of each kind.
func (v Value) Less(w Value) bool {
	if v.kind != w.kind {
		return v.kind == KindNumber
	}
	if v.kind == KindNumber {
		return v.num < w.num
	}
	return v.str < w.str
}

// Compare returns -1, 0 or +1 as v is less than, equal to, or greater
// than w in the total order on U.
func (v Value) Compare(w Value) int {
	switch {
	case v.Equal(w):
		return 0
	case v.Less(w):
		return -1
	default:
		return 1
	}
}

// String renders the constant the way the DSL writes it: strings are
// double-quoted, numbers are bare.
func (v Value) String() string {
	if v.kind == KindNumber {
		return strconv.FormatFloat(v.num, 'g', -1, 64)
	}
	return strconv.Quote(v.str)
}
