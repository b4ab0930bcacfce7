package gedlib_test

import (
	"bytes"
	"flag"
	"go/ast"
	"go/build"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite testdata/api/*.txt from the current exported API")

// publicPackages are the module's importable packages, by directory.
var publicPackages = []string{".", "workload", "serve", "persist", "persist/fault"}

// TestPublicAPI renders each public package's exported API with go/doc,
// one declaration a line, and diffs it against testdata/api/<pkg>.txt,
// so an API change shows up as a golden diff. An alias of a type from
// another package of the module is expanded to that type's exported
// fields and methods, since those are what the alias exports. Run with
// -update to rewrite the goldens.
func TestPublicAPI(t *testing.T) {
	r := apiRenderer{fset: token.NewFileSet(), pkgs: map[string]*apiPackage{}}
	goldens, _ := filepath.Glob(filepath.Join("testdata", "api", "*.txt"))
	for _, dir := range publicPackages {
		got := r.render(dir)
		name := "gedlib"
		if dir != "." {
			name = strings.ReplaceAll(dir, "/", "_")
		}
		path := filepath.Join("testdata", "api", name+".txt")
		goldens = slices.DeleteFunc(goldens, func(g string) bool { return g == path })
		if *updateAPI {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run go test -run TestPublicAPI -update . to create it)", err)
		}
		if got != string(want) {
			t.Errorf("exported API of %s changed; diff against %s:\n%s\n(run go test -run TestPublicAPI -update . if the change is intended, and name it in CHANGES.md)",
				dir, path, lineDiff(string(want), got))
		}
	}
	for _, g := range goldens {
		t.Errorf("%s belongs to no public package; delete it with the package", g)
	}
}

type apiPackage struct {
	doc     *doc.Package
	imports map[string]map[string]string // file name → import name → path
}

type apiRenderer struct {
	fset *token.FileSet
	pkgs map[string]*apiPackage // by directory
}

// load parses the package in dir (the files a build on this platform
// compiles, without tests) and keeps its exported declarations.
func (r *apiRenderer) load(dir string) *apiPackage {
	if p, ok := r.pkgs[dir]; ok {
		return p
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		panic(err)
	}
	p := &apiPackage{imports: map[string]map[string]string{}}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(r.fset, path, nil, parser.ParseComments)
		if err != nil {
			panic(err)
		}
		files = append(files, f)
		names := map[string]string{}
		for _, is := range f.Imports {
			ip, _ := strconv.Unquote(is.Path.Value)
			n := ip[strings.LastIndex(ip, "/")+1:]
			if is.Name != nil {
				n = is.Name.Name
			}
			names[n] = ip
		}
		p.imports[path] = names
	}
	p.doc, err = doc.NewFromFiles(r.fset, files, "gedlib/"+dir)
	if err != nil {
		panic(err)
	}
	r.pkgs[dir] = p
	return p
}

func (r *apiRenderer) render(dir string) string {
	p := r.load(dir)
	var lines []string
	add := func(s string) { lines = append(lines, strings.Join(strings.Fields(s), " ")) }
	values := func(kind string, vs []*doc.Value) {
		for _, v := range vs {
			for _, spec := range v.Decl.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, n := range vs.Names {
					if !n.IsExported() {
						continue
					}
					line := kind + " " + n.Name
					if vs.Type != nil {
						line += " " + r.node(vs.Type)
					}
					if i < len(vs.Values) {
						line += " = " + r.node(vs.Values[i])
					}
					add(line)
				}
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			add(r.funcSig(f.Decl))
		}
	}
	values("const", p.doc.Consts)
	values("var", p.doc.Vars)
	funcs(p.doc.Funcs)
	for _, typ := range p.doc.Types {
		spec := typeSpec(typ)
		lines = append(lines, r.typeLines(p, spec, typ, typ.Name, 0)...)
		values("const", typ.Consts)
		values("var", typ.Vars)
		funcs(typ.Funcs)
	}
	return strings.Join(lines, "\n") + "\n"
}

// typeLines renders the type spec declared as name: its kind, its
// exported fields or interface methods, and its exported methods. An
// alias of a type declared in the module is followed to that type.
func (r *apiRenderer) typeLines(p *apiPackage, spec *ast.TypeSpec, typ *doc.Type, name string, depth int) []string {
	var lines []string
	add := func(s string) { lines = append(lines, strings.Join(strings.Fields(s), " ")) }
	head := "type " + name
	switch t := spec.Type.(type) {
	case *ast.StructType:
		add(head + " struct")
		for _, f := range t.Fields.List {
			if len(f.Names) == 0 {
				add(head + " struct, embedded " + r.node(f.Type))
			}
			for _, n := range f.Names {
				if n.IsExported() {
					add(head + " struct, " + n.Name + " " + r.node(f.Type))
				}
			}
		}
	case *ast.InterfaceType:
		add(head + " interface")
		for _, m := range t.Methods.List {
			for _, n := range m.Names {
				add(head + " interface, " + n.Name + strings.TrimPrefix(r.node(m.Type), "func"))
			}
		}
	default:
		if spec.Assign.IsValid() {
			add(head + " = " + r.node(spec.Type))
			if q, tp, ts, ok := r.aliasTarget(p, spec); ok && depth < 4 {
				for _, l := range r.typeLines(q, ts, tp, name, depth+1) {
					if l != head+" struct" && l != head+" interface" && !strings.HasPrefix(l, head+" = ") {
						add(l)
					}
				}
			}
		} else {
			add(head + " " + r.node(spec.Type))
		}
	}
	if typ != nil {
		for _, m := range typ.Methods {
			recv := name
			if _, ptr := m.Decl.Recv.List[0].Type.(*ast.StarExpr); ptr {
				recv = "*" + name
			}
			add("method (" + recv + ") " + m.Name + strings.TrimPrefix(r.node(m.Decl.Type), "func"))
		}
	}
	return lines
}

// aliasTarget resolves the alias spec = pkg.Name to the declaration of
// Name in a package of this module.
func (r *apiRenderer) aliasTarget(p *apiPackage, spec *ast.TypeSpec) (*apiPackage, *doc.Type, *ast.TypeSpec, bool) {
	sel, ok := spec.Type.(*ast.SelectorExpr)
	if !ok {
		return nil, nil, nil, false
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, nil, nil, false
	}
	ip := p.imports[r.fset.File(spec.Pos()).Name()][x.Name]
	if ip != "gedlib" && !strings.HasPrefix(ip, "gedlib/") {
		return nil, nil, nil, false
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(ip, "gedlib"), "/")
	if dir == "" {
		dir = "."
	}
	q := r.load(dir)
	for _, typ := range q.doc.Types {
		if typ.Name == sel.Sel.Name {
			return q, typ, typeSpec(typ), true
		}
	}
	return nil, nil, nil, false
}

func typeSpec(typ *doc.Type) *ast.TypeSpec {
	for _, s := range typ.Decl.Specs {
		if ts := s.(*ast.TypeSpec); ts.Name.Name == typ.Name {
			return ts
		}
	}
	panic("no spec for " + typ.Name)
}

func (r *apiRenderer) funcSig(d *ast.FuncDecl) string {
	fd := *d
	fd.Doc, fd.Body = nil, nil
	return r.node(&fd)
}

func (r *apiRenderer) node(n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, r.fset, n); err != nil {
		panic(err)
	}
	return buf.String()
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var out []string
	for _, l := range w {
		if !slices.Contains(g, l) {
			out = append(out, "- "+l)
		}
	}
	for _, l := range g {
		if !slices.Contains(w, l) {
			out = append(out, "+ "+l)
		}
	}
	return strings.Join(out, "\n")
}
