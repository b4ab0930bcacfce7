package gedlib

import (
	"gedlib/internal/gedio"
)

// ParseRules parses dependencies from the text DSL, one rule per `ged`
// block:
//
//	# a video game can only be created by programmers
//	ged phi1 on (x:person)-[create]->(y:product) {
//	  when y.type = "video game"
//	  then x.type = "programmer"
//	}
//
// Patterns are comma-separated edge chains of (var:label) nodes with `_`
// as the wildcard label; `when` (optional) introduces the antecedent and
// `then` the consequent; literals are `x.attr = value`, `x.attr =
// y.attr` or `x.id = y.id`, and `false` forbids the antecedent. All
// three rule forms parse: a literal comparing with != < <= > >= makes a
// GDC, and a consequent joined by `or` makes a GED∨ (Rule.Form tells
// them apart). Every rule is checked with Rule.Validate.
func ParseRules(src string) (RuleSet, error) {
	sigma, err := gedio.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := sigma.Validate(); err != nil {
		return nil, err
	}
	return sigma, nil
}

// FormatRules renders Σ in the DSL accepted by ParseRules. Rule names
// are sanitized to DSL identifiers (mined rules carry punctuation), so
// the output always re-parses.
func FormatRules(sigma RuleSet) string {
	named := make(RuleSet, len(sigma))
	for i, d := range sigma {
		c := *d
		c.Name = sanitizeRuleName(d.Name)
		named[i] = &c
	}
	return gedio.Format(named)
}

// sanitizeRuleName maps an arbitrary rule name to a DSL identifier.
func sanitizeRuleName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "rule"
	}
	return string(out)
}

// LoadGraph parses the JSON wire format of a property graph:
//
//	{"nodes": [{"id": "n0", "label": "city", "attrs": {"name": "Helsinki"}}],
//	 "edges": [{"src": "n1", "label": "capital", "dst": "n0"}]}
//
// Node ids are arbitrary strings; the returned map resolves them to
// NodeIDs. Attribute values may be JSON strings, numbers or booleans
// (booleans become 0/1 numbers, matching the paper's examples).
func LoadGraph(data []byte) (*Graph, map[string]NodeID, error) {
	return gedio.UnmarshalGraph(data)
}

// MarshalGraph renders g in the JSON wire format accepted by LoadGraph,
// writing node ids as "n<i>" in insertion order so the output is
// deterministic.
func MarshalGraph(g *Graph) ([]byte, error) {
	return gedio.MarshalGraph(g)
}
