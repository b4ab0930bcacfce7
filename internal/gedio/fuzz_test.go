package gedio

import (
	"bytes"
	"reflect"
	"testing"

	"gedlib/internal/graph"
)

// FuzzParse drives the DSL parser with arbitrary inputs: it must never
// panic, and everything it accepts must survive a Format → Parse round
// trip as the same rules: each rule's String and Disjunctive bit. Run
// with `go test -fuzz=FuzzParse ./internal/gedio` to explore; the seed
// corpus runs under plain `go test`.
func FuzzParse(f *testing.F) {
	seeds := []string{
		phi1Src,
		`ged k on (x:album), (x':album) { when x.title = x'.title then x.id = x'.id }`,
		`ged d on (x:a) { then x.f = 0 or x.f = 1 }`,
		`ged b on (x:e) { when x.s > 100 and x.s <= 200 then false }`,
		`ged w on (y)-[is_a]->(x) { when x.c = x.c then y.c = x.c }`,
		`ged e on (x:a) { }`,
		`# only a comment`,
		`ged broken on (x:a { }`,
		`ged n on (x:a) { when x.a = -3.5 then x.b = "q\"uo" }`,
		"ged m on (x:a)-[e]->(y:b), (y)-[f]->(z) {\n when x.p = y.q\n then z.r = 1\n}",
		`ged t on (x:a) { then x.s = "a\tb" }`,
		`ged l on (x:a) { then x.s = "line\nbreak" }`,
		`ged c on (x:a) { then x.s = "\x03" or x.s = "\u00e9\\" }`,
		`ged big on (x:a) { when x.n > 100000000000000000000000 then x.m = 0.000001 }`,
		`ged none on (x:a) { when x.f = 1 then or() }`,
		`ged one on (x:a) { then or(x.f = 0) }`,
		`ged two on (x:a)-[e]->(y:b) { then or(x.id = y.id, y.f = "s") }`,
		`ged v on (or:a) { then or.f = 1 }`,
		`ged f on (x:a) { then false or x.a = 1 }`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		rules, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted input must round-trip through the printer.
		text := Format(rules)
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("printer output rejected: %v\ninput: %q\nprinted: %q", err, src, text)
		}
		if len(again) != len(rules) {
			t.Fatalf("rule count changed: %d -> %d", len(rules), len(again))
		}
		for i, r := range rules {
			if again[i].String() != r.String() || again[i].Disjunctive != r.Disjunctive || again[i].Form() != r.Form() {
				t.Fatalf("rule %d changed:\n%s (disjunctive %v)\n%s (disjunctive %v)\nprinted: %q",
					i, r, r.Disjunctive, again[i], again[i].Disjunctive, text)
			}
		}
	})
}

// FuzzUnmarshalGraph: the JSON reader must never panic, and an
// accepted graph round-trips: what MarshalGraph writes reads back to a
// graph that marshals to the same bytes and exports the same image.
func FuzzUnmarshalGraph(f *testing.F) {
	f.Add(`{"nodes":[{"id":"a","label":"x","attrs":{"k":1}}],"edges":[]}`)
	f.Add(`{"nodes":[{"id":"a","label":"x"},{"id":"b","label":"y"}],"edges":[{"src":"a","label":"e","dst":"b"}]}`)
	f.Add(`{"nodes":[{"id":"a","label":"x","attrs":{"b":"s","a":-2.5,"c":true}}],"edges":[{"src":"a","label":"e","dst":"a"},{"src":"a","label":"e","dst":"a"}]}`)
	f.Add(`{}`)
	f.Add(`[1,2,3]`)
	f.Fuzz(func(t *testing.T, src string) {
		g, _, err := UnmarshalGraph([]byte(src))
		if err != nil {
			return
		}
		out, err := MarshalGraph(g)
		if err != nil {
			t.Fatalf("accepted graph failed to marshal: %v", err)
		}
		again, _, err := UnmarshalGraph(out)
		if err != nil {
			t.Fatalf("marshalled graph does not read back: %v\n%s", err, out)
		}
		if out2, err := MarshalGraph(again); err != nil || !bytes.Equal(out, out2) {
			t.Fatalf("re-marshal differs (err %v):\n%s\nthen\n%s", err, out, out2)
		}
		if !reflect.DeepEqual(graph.ImageOf(g), graph.ImageOf(again)) {
			t.Fatalf("round trip changed the image:\n%s", out)
		}
	})
}
