package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// wireGoldens are the /violations and /validate bodies of
// testdata/kb.json under testdata/rules.ged, pinned byte for byte in
// serve/testdata. The encoder of these two bodies must reproduce them
// exactly: clients may hash, diff or cache the bytes, not only parse them.
var wireGoldens = []struct {
	file, method, path, body string
}{
	{"violations_default.json", "GET", "/graphs/kb/violations", ""},
	{"violations_limit1_offset1.json", "GET", "/graphs/kb/violations?limit=1&offset=1", ""},
	{"violations_offset_past_end.json", "GET", "/graphs/kb/violations?offset=99", ""},
	{"validate_finland.json", "POST", "/graphs/kb/validate", `{"nodes":["finland"]}`},
}

// graphServer starts a server holding one graph, created from graph
// JSON under the rules in the DSL text rules.
func graphServer(t testing.TB, name, graph, rules string) *httptest.Server {
	t.Helper()
	s, err := NewServer(Config{MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	wireDo(t, ts, "POST", "/graphs?name="+name, graph, http.StatusCreated)
	wireDo(t, ts, "POST", "/graphs/"+name+"/rules", rules, http.StatusOK)
	return ts
}

// kbServer holds testdata/kb.json as "kb" under testdata/rules.ged.
func kbServer(t testing.TB) *httptest.Server {
	t.Helper()
	kb, err := os.ReadFile("../testdata/kb.json")
	if err != nil {
		t.Fatal(err)
	}
	rules, err := os.ReadFile("../testdata/rules.ged")
	if err != nil {
		t.Fatal(err)
	}
	return graphServer(t, "kb", string(kb), string(rules))
}

// wireDo sends one request and returns the raw response body, failing
// the test on a status other than want or a Content-Type other than JSON.
func wireDo(t testing.TB, ts *httptest.Server, method, path, body string, want int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d, want %d; body: %s", method, path, resp.StatusCode, want, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s %s: Content-Type %q, want application/json", method, path, ct)
	}
	return data
}

func TestWireGolden(t *testing.T) {
	ts := kbServer(t)
	for _, g := range wireGoldens {
		t.Run(g.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", g.file))
			if err != nil {
				t.Fatal(err)
			}
			got := wireDo(t, ts, g.method, g.path, g.body, http.StatusOK)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s %s body changed:\n got  %q\n want %q", g.method, g.path, got, want)
			}
		})
	}
}
