package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"gedlib"
	"gedlib/persist"
)

// A GDC and a GED∨ over one graph: no employee out-earns their manager,
// and every account's flag is 0 or 1.
const gdcGEDorRules = `
ged raise on (e:emp)-[reports_to]->(m:emp) {
  when e.salary > m.salary
  then false
}
ged flag on (x:account) {
  then x.flag = 0 or x.flag = 1
}
`

// wireViolations reads GET /violations as sorted "rule|x=n1,…|literal"
// lines.
func wireViolations(t *testing.T, url string) []string {
	t.Helper()
	res := doJSON(t, "GET", url+"/graphs/acct/violations", nil, http.StatusOK)
	var out []string
	for _, v := range res["violations"].([]any) {
		v := v.(map[string]any)
		var match []string
		for x, n := range v["match"].(map[string]any) {
			match = append(match, fmt.Sprintf("%s=%s", x, n))
		}
		sort.Strings(match)
		out = append(out, fmt.Sprintf("%s|%s|%s", v["rule"], strings.Join(match, ","), v["literal"]))
	}
	sort.Strings(out)
	return out
}

// engineViolations renders Engine.Validate of Σ on g the same way, with
// MarshalGraph's node names n<id>.
func engineViolations(t *testing.T, g *gedlib.Graph, sigma gedlib.RuleSet) []string {
	t.Helper()
	vs, err := gedlib.New().Validate(context.Background(), g, sigma)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, v := range vs {
		var match []string
		for _, x := range v.GED.Pattern.Vars() {
			match = append(match, fmt.Sprintf("%s=n%d", x, v.Match[x]))
		}
		sort.Strings(match)
		out = append(out, fmt.Sprintf("%s|%s|%s", v.GED.Name, strings.Join(match, ","), v.Literal))
	}
	sort.Strings(out)
	return out
}

// TestServeGDCAndGEDor: a GDC + GED∨ rule set registers over HTTP, the
// maintained /violations equals Engine.Validate on the same graph after
// mutations and after reopening from the data directory, and /chase —
// defined for GEDs only — answers 400 naming ErrNotGED.
func TestServeGDCAndGEDor(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{MaxDelay: time.Millisecond, DataDir: dir}
	g := gedlib.NewGraph()
	boss := g.AddNodeAttrs("emp", map[gedlib.Attr]gedlib.Value{"salary": gedlib.Int(100)})
	for i := 0; i < 3; i++ {
		e := g.AddNodeAttrs("emp", map[gedlib.Attr]gedlib.Value{"salary": gedlib.Int(90 + 10*i)})
		g.AddEdge(e, "reports_to", boss)
	}
	for i := 0; i < 4; i++ {
		g.AddNodeAttrs("account", map[gedlib.Attr]gedlib.Value{"flag": gedlib.Int(i)})
	}
	data, err := gedlib.MarshalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := gedlib.ParseRules(gdcGEDorRules)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	doJSON(t, "POST", ts.URL+"/graphs?name=acct", data, http.StatusCreated)
	res := doJSON(t, "POST", ts.URL+"/graphs/acct/rules", []byte(gdcGEDorRules), http.StatusOK)
	if res["rules"].(float64) != 2 {
		t.Fatalf("registered %v rules, want 2", res["rules"])
	}
	want := engineViolations(t, g, sigma)
	if got := wireViolations(t, ts.URL); fmt.Sprint(got) != fmt.Sprint(want) || len(want) != 3 {
		t.Fatalf("seeded /violations:\n%v\nEngine.Validate:\n%v", got, want)
	}

	// Fix one account, break another, cut the boss's salary and have the
	// best-paid employee report to the worst-paid one too.
	ops := []Op{
		{Op: "set_attr", ID: "n6", Attr: "flag", Value: 1},
		{Op: "set_attr", ID: "n4", Attr: "flag", Value: 9},
		{Op: "set_attr", ID: "n0", Attr: "salary", Value: 95},
		{Op: "add_edge", Src: "n3", Label: "reports_to", Dst: "n1"},
	}
	g.SetAttr(6, "flag", gedlib.Int(1))
	g.SetAttr(4, "flag", gedlib.Int(9))
	g.SetAttr(0, "salary", gedlib.Int(95))
	g.AddEdge(3, "reports_to", 1)
	body, _ := json.Marshal(map[string]any{"ops": ops})
	doJSON(t, "POST", ts.URL+"/graphs/acct/mutate", body, http.StatusOK)
	want = engineViolations(t, g, sigma)
	if got := wireViolations(t, ts.URL); fmt.Sprint(got) != fmt.Sprint(want) || len(want) != 5 {
		t.Fatalf("after mutate /violations:\n%v\nEngine.Validate:\n%v", got, want)
	}

	res = doJSON(t, "POST", ts.URL+"/graphs/acct/chase", nil, http.StatusBadRequest)
	if msg := fmt.Sprint(res["error"]); !strings.Contains(msg, gedlib.ErrNotGED.Error()) {
		t.Errorf("/chase error %q does not name ErrNotGED", msg)
	}
	ts.Close()
	srv.Close()

	reopened, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if _, err := reopened.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts = httptest.NewServer(reopened.Handler())
	defer ts.Close()
	if got := wireViolations(t, ts.URL); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reopened /violations:\n%v\nEngine.Validate:\n%v", got, want)
	}
}

// TestRestoreLegacyEscapes: a data directory whose stored rules use an
// escape that Go unquoting rejects ("\d", which the DSL once read as d)
// restores, on a leader and on a follower, with the constants it was
// served with. Registering that source anew is a 400.
func TestRestoreLegacyEscapes(t *testing.T) {
	const legacy = `ged code on (x:item) { then x.code = "\d" }`
	if _, err := gedlib.ParseRules(legacy); err == nil {
		t.Fatal("ParseRules accepts a bad escape")
	}
	dir := t.TempDir()
	cfg := Config{MaxDelay: time.Millisecond, DataDir: dir}
	g := gedlib.NewGraph()
	g.AddNodeAttrs("item", map[gedlib.Attr]gedlib.Value{"code": gedlib.String("d")})
	g.AddNodeAttrs("item", map[gedlib.Attr]gedlib.Value{"code": gedlib.String(`\d`)})
	data, err := gedlib.MarshalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	doJSON(t, "POST", ts.URL+"/graphs?name=acct", data, http.StatusCreated)
	doJSON(t, "POST", ts.URL+"/graphs/acct/rules", []byte(legacy), http.StatusBadRequest)
	ts.Close()
	srv.Close()

	// Store the source as a build with the old reading did.
	st, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gs, rec, err := st.OpenGraph("acct")
	if err != nil {
		t.Fatal(err)
	}
	if err := gs.AppendRules(rec.State.Graph.Version(), legacy); err != nil {
		t.Fatal(err)
	}
	if err := gs.Close(); err != nil {
		t.Fatal(err)
	}
	sigma, err := parseStoredRules(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if c := sigma[0].Y[0].Right.Const; c != gedlib.String("d") {
		t.Fatalf("legacy reading of \\d is %v, want d", c)
	}
	want := engineViolations(t, g, sigma)
	if len(want) != 1 {
		t.Fatalf("Engine.Validate: %v, want the \\d item only", want)
	}

	reopened, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if _, err := reopened.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts = httptest.NewServer(reopened.Handler())
	defer ts.Close()
	if got := wireViolations(t, ts.URL); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("restored /violations:\n%v\nEngine.Validate:\n%v", got, want)
	}

	fol, err := NewCatalog(Config{DataDir: dir, FollowPoll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	if err := fol.Follow(context.Background()); err != nil {
		t.Fatal(err)
	}
	fent, err := fol.Get("acct")
	if err != nil {
		t.Fatal(err)
	}
	if vs := fent.CurrentView().Violations; len(vs) != 1 {
		t.Fatalf("follower holds %d violations, want 1", len(vs))
	}
}

// TestUnescapeLegacy: the old reading stood every escaped character for
// itself; rewritten in Go quoting, the same source reads the same
// constants, and a source without a backslash is left alone.
func TestUnescapeLegacy(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{`"\d"`, "d"},
		{`"a\tb"`, "atb"},
		{`"C:\path\n"`, "C:pathn"},
		{`"q\"uo"`, `q"uo`},
		{`"back\\sl"`, `back\sl`},
		{`"\é\\"`, `é\`},
		{`"plain text"`, "plain text"},
	} {
		doc := "# a comment \\ with \\\" quotes\nged r on (x:a) { then x.s = " + c.src + " and x.t = \"\\d\" }"
		sigma, err := gedlib.ParseRules(unescapeLegacy(doc))
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if got := sigma[0].Y[0].Right.Const; got != gedlib.String(c.want) {
			t.Errorf("%s read as %v, want %q", c.src, got, c.want)
		}
		if got := sigma[0].Y[1].Right.Const; got != gedlib.String("d") {
			t.Errorf("second constant read as %v, want d", got)
		}
	}
}
