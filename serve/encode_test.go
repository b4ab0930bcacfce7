package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gedlib"
	"gedlib/workload"
)

// violationJSON and renderViolations are the encoding the appender
// replaced: encoding/json over one struct and one map per violation.
// They stay here as the differential's oracle.
type violationJSON struct {
	Rule    string            `json:"rule"`
	Match   map[string]string `json:"match"`
	Literal string            `json:"literal"`
}

func renderViolations(view *View, vs []gedlib.Violation) []violationJSON {
	out := make([]violationJSON, len(vs))
	for i, v := range vs {
		m := make(map[string]string, len(v.Match))
		for x, id := range v.Match {
			m[string(x)] = view.Names.NameOf(id)
		}
		out[i] = violationJSON{Rule: v.GED.Name, Match: m, Literal: v.Literal.String()}
	}
	return out
}

// NameOf maps a NodeID back to its wire id; nodes without one render
// positionally as "#id".
func (t *nameTable) NameOf(id gedlib.NodeID) string {
	if int(id) < len(t.byID) && t.byID[id] != "" {
		return t.byID[id]
	}
	return "#" + strconv.Itoa(int(id))
}

// jsonBody is what writeJSON puts on the wire for v.
func jsonBody(t testing.TB, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// hostile are strings that exercise every escape encoding/json makes.
var hostile = []string{
	"", "plain", `"`, `\`, `a"b\c`, "\x00\x01\x1f", "\b\f\n\r\t", "\x7f",
	"\xff", "bad\xe2\x80", "\xc3", "\u2028", "\u2029", "x\u2028y\u2029z",
	"<>&", "héllo ✓ 日本", "\ufffd", "#7", "\U0001F600",
}

// hostileRule is a rule whose name, variables and consequent constants
// are all hostile, with 0 and -0 side by side in Y (== but rendered
// differently).
func hostileRule(rng *rand.Rand) *gedlib.Rule {
	p := gedlib.NewPattern()
	var vars []gedlib.Var
	for len(vars) < 3 {
		v := gedlib.Var(hostile[rng.Intn(len(hostile))] + strconv.Itoa(len(vars)))
		p.AddVar(v, "l")
		vars = append(vars, v)
	}
	y := []gedlib.Literal{
		gedlib.ConstLit(vars[0], "n", gedlib.Int(0)),
		gedlib.ConstLit(vars[0], "n", gedlib.Number(math.Copysign(0, -1))),
		gedlib.VarLit(vars[1], gedlib.Attr(hostile[rng.Intn(len(hostile))]), vars[2], "b"),
		gedlib.IDLit(vars[0], vars[2]),
	}
	for _, h := range hostile {
		y = append(y, gedlib.ConstLit(vars[1], "s", gedlib.String(h)))
	}
	return &gedlib.Rule{Name: hostile[rng.Intn(len(hostile))], Pattern: p, Y: y}
}

// differentialCase builds a view under sigma and violations of its rules
// and of strangers: literals outside Y, rules outside sigma, and matches
// whose variables are not the pattern's.
func differentialCase(seed int64) (*View, []gedlib.Violation) {
	rng := rand.New(rand.NewSource(seed))
	sigma := append(workload.PaperGEDs(), workload.PaperKeys()...)
	sigma = append(sigma, workload.PaperPhi5(2), hostileRule(rng), hostileRule(rng))
	stranger := hostileRule(rng)

	const nodes = 40
	names := make([]string, nodes)
	for i := range names {
		switch rng.Intn(4) {
		case 0: // unnamed: renders as #id
		case 1:
			names[i] = hostile[rng.Intn(len(hostile))] + strconv.Itoa(i)
		default:
			names[i] = "n" + strconv.Itoa(i)
		}
	}
	view := &View{
		Epoch: rng.Uint64(), Version: uint64(rng.Intn(1000)),
		Names: nameIndexFromDense(names).table(len(names)), Rules: sigma, text: newRuleText(sigma),
	}

	vs := make([]gedlib.Violation, 1+rng.Intn(200))
	for i := range vs {
		r := sigma[rng.Intn(len(sigma))]
		if rng.Intn(20) == 0 {
			r = stranger
		}
		m := gedlib.Match{}
		for _, x := range r.Pattern.Vars() {
			m[x] = gedlib.NodeID(rng.Intn(nodes + 10)) // some past the table
		}
		switch rng.Intn(20) {
		case 0:
			m["extra"] = 1
		case 1:
			for x := range m {
				delete(m, x)
				m["swapped"] = 2
				break
			}
		}
		var lit *gedlib.Literal
		switch k := rng.Intn(10); {
		case len(r.Y) > 0 && k > 1:
			lit = &r.Y[rng.Intn(len(r.Y))]
		case len(r.Y) > 0 && k == 1:
			// A copy of a rule literal: not found by pointer, so rendered.
			l := r.Y[rng.Intn(len(r.Y))]
			lit = &l
		default:
			l := gedlib.Cmp("x", "a", gedlib.Op(rng.Intn(8)), gedlib.String(hostile[rng.Intn(len(hostile))]))
			lit = &l
		}
		vs[i] = gedlib.Violation{GED: r, Match: m, Literal: lit}
	}
	return view, vs
}

func recorded(t testing.TB, write func(w http.ResponseWriter)) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	write(rec)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	return rec.Body.Bytes()
}

// TestAppenderMatchesEncodingJSON: both violation-carrying bodies are
// byte-identical to encoding/json over the old shape, for seeded pages
// of hostile names, unnamed nodes, every paper rule and every fallback.
func TestAppenderMatchesEncodingJSON(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		view, vs := differentialCase(seed)
		for _, page := range [][]gedlib.Violation{vs, vs[:0], nil} {
			total := len(vs) + 3
			got := recorded(t, func(w http.ResponseWriter) { writeViolationPage(w, view, total, page) })
			want := jsonBody(t, map[string]any{
				"total": total, "epoch": view.Epoch, "version": view.Version,
				"violations": renderViolations(view, page),
			})
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d: /violations body differs\n got  %q\n want %q", seed, got, want)
			}
			got = recorded(t, func(w http.ResponseWriter) { writeTouching(w, view, page) })
			want = jsonBody(t, map[string]any{
				"epoch": view.Epoch, "count": len(page),
				"violations": renderViolations(view, page),
			})
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d: /validate body differs\n got  %q\n want %q", seed, got, want)
			}
		}
	}
}

// TestAppenderWithoutRuleText: a view that carries no rule text renders
// every violation directly, to the same bytes.
func TestAppenderWithoutRuleText(t *testing.T) {
	view, vs := differentialCase(7)
	bare := *view
	bare.text = nil
	got := recorded(t, func(w http.ResponseWriter) { writeViolationPage(w, &bare, len(vs), vs) })
	want := recorded(t, func(w http.ResponseWriter) { writeViolationPage(w, view, len(vs), vs) })
	if !bytes.Equal(got, want) {
		t.Fatalf("bodies differ without rule text\n got  %q\n want %q", got, want)
	}
}

func checkJSONString(t *testing.T, s string) {
	t.Helper()
	want := jsonBody(t, s)
	got := append(appendJSONString(nil, s), '\n')
	if !bytes.Equal(got, want) {
		t.Fatalf("appendJSONString(%q) = %q, encoding/json writes %q", s, got, want)
	}
}

func TestAppendJSONString(t *testing.T) {
	for _, s := range hostile {
		checkJSONString(t, s)
	}
	for b := 0; b < 256; b++ {
		checkJSONString(t, "a"+string([]byte{byte(b)})+"z")
	}
	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"a", "Z", " ", `"`, `\`, "\x00", "\x1f", "\x7f", "\x80", "\xff", "\xe2\x80", "é", "\u2028", "\u2029", "\U0001F600", "<", "&"}
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		checkJSONString(t, b.String())
	}
}

// FuzzAppendJSONString: for any input the appender writes what
// encoding/json writes, and never panics.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range hostile {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkJSONString(t, s)
	})
}

// pagingServer serves graph "g" with n violations of one rule: n
// psychologists each created one video game.
func pagingServer(t testing.TB, n int) *httptest.Server {
	t.Helper()
	var nodes, edges []string
	nodes = append(nodes, `{"id":"game","label":"product","attrs":{"type":"video game"}}`)
	for i := range n {
		nodes = append(nodes, fmt.Sprintf(`{"id":"p%03d","label":"person","attrs":{"type":"psychologist"}}`, i))
		edges = append(edges, fmt.Sprintf(`{"src":"p%03d","label":"create","dst":"game"}`, i))
	}
	graph := `{"nodes":[` + strings.Join(nodes, ",") + `],"edges":[` + strings.Join(edges, ",") + `]}`
	rules := `ged phi1 on (x:person)-[create]->(y:product) {
  when y.type = "video game"
  then x.type = "programmer"
}`
	return graphServer(t, "g", graph, rules)
}

// TestViolationPaging pins the paging contract of GET /violations:
// limit defaults to 100 and a negative limit returns the rest of the
// set; offset defaults to 0 and is clamped into [0, total]; a value that
// does not parse falls back to its default.
func TestViolationPaging(t *testing.T) {
	const total = 120
	ts := pagingServer(t, total)
	type page struct {
		Total      int               `json:"total"`
		Violations []json.RawMessage `json:"violations"`
	}
	get := func(query string) page {
		var p page
		if err := json.Unmarshal(wireDo(t, ts, "GET", "/graphs/g/violations"+query, "", http.StatusOK), &p); err != nil {
			t.Fatal(err)
		}
		if p.Total != total {
			t.Fatalf("%s: total %d, want %d", query, p.Total, total)
		}
		return p
	}
	all := get("?limit=-1").Violations
	if len(all) != total {
		t.Fatalf("limit=-1 returned %d of %d", len(all), total)
	}
	cases := []struct {
		query    string
		from, to int
	}{
		{"", 0, 100},
		{"?limit=1", 0, 1},
		{"?limit=0", 0, 0},
		{"?limit=500", 0, total},
		{"?limit=-1&offset=110", 110, total},
		{"?limit=-7&offset=5", 5, total},
		{"?limit=abc", 0, 100},
		{"?limit=1.5", 0, 100},
		{"?offset=30", 30, total},
		{"?offset=-5", 0, 100},
		{"?offset=abc&limit=2", 0, 2},
		{"?offset=119&limit=5", 119, total},
		{"?offset=120", total, total},
		{"?offset=999", total, total},
		{"?limit=1&offset=1", 1, 2},
		{"?limit=10&offset=50", 50, 60},
	}
	for _, c := range cases {
		got := get(c.query).Violations
		want := all[c.from:c.to]
		eq := slices.EqualFunc(got, want, func(a, b json.RawMessage) bool { return bytes.Equal(a, b) })
		if !eq {
			t.Errorf("%q: got %d violations, want all[%d:%d]", c.query, len(got), c.from, c.to)
		}
	}
}

// BenchmarkHandleViolations is one 50-violation page of GET /violations
// through the handler, so its allocations stay visible under -benchmem.
func BenchmarkHandleViolations(b *testing.B) {
	h := pagingServer(b, 120).Config.Handler
	req := httptest.NewRequest("GET", "/graphs/g/violations?limit=50&offset=50", nil)
	b.ReportAllocs()
	for b.Loop() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}
