package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

const annotSrc = `package p

// Doc comment.
//
//tf:hotpath
func Hot() {
	_ = 1 //tf:alloc-ok same line
	//tf:unordered-ok line above
	_ = 2
}

func Cold() {}
`

func TestAnnotations(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", annotSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ann := CollectAnnotations(fset, f)

	fns := map[string]*ast.FuncDecl{}
	var stmts []ast.Stmt
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			fns[fd.Name.Name] = fd
			if fd.Name.Name == "Hot" {
				stmts = fd.Body.List
			}
		}
	}
	if len(stmts) != 2 {
		t.Fatalf("fixture body has %d statements, want 2", len(stmts))
	}

	if !ann.FuncAnnotated(fns["Hot"], "hotpath") {
		t.Error("hotpath directive in the doc comment not detected")
	}
	if ann.FuncAnnotated(fns["Cold"], "hotpath") {
		t.Error("unannotated function reported as hotpath")
	}
	if !ann.At(stmts[0].Pos(), "alloc-ok") {
		t.Error("trailing same-line alloc-ok not detected")
	}
	if !ann.At(stmts[1].Pos(), "unordered-ok") {
		t.Error("line-above unordered-ok not detected")
	}
	if ann.At(stmts[1].Pos(), "alloc-ok") {
		t.Error("directive from an unrelated line leaked onto statement 2")
	}
}

func TestDirectiveName(t *testing.T) {
	cases := []struct {
		comment string
		name    string
		ok      bool
	}{
		{"//tf:unordered-ok summing commutes", "unordered-ok", true},
		{"//tf:hotpath", "hotpath", true},
		{"// tf:hotpath", "", false}, // space breaks the directive form
		{"//tf:", "", false},
		{"// ordinary comment", "", false},
	}
	for _, c := range cases {
		name, ok := directiveName(c.comment)
		if name != c.name || ok != c.ok {
			t.Errorf("directiveName(%q) = %q, %v; want %q, %v", c.comment, name, ok, c.name, c.ok)
		}
	}
}

func TestSortDiagnostics(t *testing.T) {
	ds := []Diagnostic{
		{Analyzer: "b", Position: token.Position{Filename: "a.go", Line: 2}},
		{Analyzer: "a", Position: token.Position{Filename: "a.go", Line: 2}},
		{Analyzer: "z", Position: token.Position{Filename: "a.go", Line: 1}},
		{Analyzer: "a", Position: token.Position{Filename: "b.go", Line: 1}},
	}
	SortDiagnostics(ds)
	order := []string{"z", "a", "b", "a"}
	for i, want := range order {
		if ds[i].Analyzer != want {
			t.Fatalf("position %d: got analyzer %q, want %q", i, ds[i].Analyzer, want)
		}
	}
	if ds[3].Position.Filename != "b.go" {
		t.Errorf("file ordering not primary: %v", ds)
	}
}

func TestFindModuleRoot(t *testing.T) {
	fixture, err := filepath.Abs(filepath.Join("analyzers", "testdata", "src", "clean"))
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(filepath.Join(fixture, "internal", "core"))
	if err != nil {
		t.Fatal(err)
	}
	if root != fixture {
		t.Errorf("FindModuleRoot climbed to %q, want %q", root, fixture)
	}
}

func TestExpandPatternsSkipsTestdataAndNestedModules(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ExpandPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	foundSelf := false
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			t.Fatal(err)
		}
		slash := filepath.ToSlash(rel)
		if strings.Contains(slash+"/", "/testdata/") || filepath.Base(rel) == "testdata" {
			t.Errorf("ExpandPatterns descended into testdata: %q", rel)
		}
		if slash == "internal/analysis" {
			foundSelf = true
		}
	}
	if !foundSelf {
		t.Errorf("ExpandPatterns missed internal/analysis; got %v", dirs)
	}
}

const calleeSrc = `package p

func f(int)                   {}
func g[T any](T)              {}
func h[T, U any](T, U)        {}

type box[T any] struct{ v T }

func (b box[T]) m() {}

func calls(fs []func(int)) {
	f(1)
	(f)(1)
	g[int](1)
	(g[int])(1)
	h[int, string](1, "")
	box[int]{}.m()
	g(1)
	fs[0](1)
	_ = len(fs)
	_ = int(2)
}
`

// TestCallee pins the call forms Callee sees through: plain, parenthesised,
// explicitly and implicitly instantiated calls and methods of an
// instantiated type all resolve to the declared function; calls through a
// value, builtins and conversions resolve to nothing.
func TestCallee(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", calleeSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	if _, err := new(types.Config).Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	declared := map[*types.Func]string{}
	for id, obj := range info.Defs {
		if fn, ok := obj.(*types.Func); ok {
			declared[fn] = id.Name
		}
	}
	var got []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := "-"
		if fn := Callee(info, call.Fun); fn != nil {
			name = declared[fn] // "" if not the declared object
		}
		got = append(got, name)
		return true
	})
	want := []string{"f", "f", "g", "g", "h", "m", "g", "-", "-", "-"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("callees %q, want %q", got, want)
	}
}
