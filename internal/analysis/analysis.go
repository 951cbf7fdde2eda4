// Package analysis is a small stdlib-only static-analysis framework for
// enforcing TurboFlux-specific invariants that the Go compiler cannot see:
// oracle isolation, DCG encapsulation, deterministic match emission,
// read-only eval paths, hot-path allocation discipline and error-handling
// hygiene.
//
// It deliberately mirrors the shape of golang.org/x/tools/go/analysis —
// an Analyzer runs over one type-checked package at a time and reports
// position-anchored diagnostics — but is built only on go/parser, go/ast
// and go/types, because this repository takes no external dependencies.
// Packages are loaded by Loader (load.go), which resolves module-local
// imports from the source tree and standard-library imports through the
// gc source importer, so analyzers see full cross-package type
// information (object positions in imported packages are real file
// positions, which oracle-isolation relies on).
//
// Analyzers honor suppression annotations written as directive comments
// (no space after //, so gofmt leaves them alone):
//
//	//tf:hotpath        function is allocation-sensitive (opt-in check)
//	//tf:unordered-ok   map iteration here is order-independent
//	//tf:oracle-ok      cold, off-eval-path use of the DCG fixpoint oracle
//	//tf:unchecked-ok   discarding this error is deliberate
//	//tf:alloc-ok       this allocation in a hot path is deliberate
//	//tf:eval-path      function is an extra eval-readonly root (opt-in check)
//	//tf:graph-write    coordinator-only code exempt from eval-readonly
//	//tf:actor-owned    type whose methods only the engine-owner actor may call
//	//tf:actor-loop     function is an actor-goroutine root (opt-in check)
//	//tf:actor-ok       deliberate owned-type access outside the actor
//	//tf:goroutine      names a go statement (required outside tests)
//	//tf:unbuffered-ok  deliberate unbuffered channel on the serving path
//	//tf:lock-ok        deliberate banned call inside a critical section
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Severity classifies an analyzer's findings. Errors are contract
// violations that fail CI; warnings are discipline findings that are
// reported but not fatal.
type Severity string

const (
	SeverityError Severity = "error"
	SeverityWarn  Severity = "warn"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, e.g. "oracle-isolation".
	Name string
	// Doc is a one-line description of the invariant the analyzer guards.
	Doc string
	// Severity classifies every finding the analyzer reports; the zero
	// value means SeverityError.
	Severity Severity
	// Run analyzes one package and reports findings through the pass.
	Run func(*Pass) error
}

// severity returns the analyzer's effective severity.
func (a *Analyzer) severity() Severity {
	if a.Severity == "" {
		return SeverityError
	}
	return a.Severity
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// ModulePath is the module path from go.mod, e.g. "turboflux".
	ModulePath string
	// Pkg is the package under analysis.
	Pkg *Package

	annotations map[*ast.File]*Annotations
	report      func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Severity: p.Analyzer.severity(),
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Annotations returns the //tf: directive index for f, built on first use.
func (p *Pass) Annotations(f *ast.File) *Annotations {
	if p.annotations == nil {
		p.annotations = make(map[*ast.File]*Annotations)
	}
	a := p.annotations[f]
	if a == nil {
		a = CollectAnnotations(p.Fset, f)
		p.annotations[f] = a
	}
	return a
}

// RelPath returns the package path relative to the module root: "" for the
// root package itself, "internal/core" for turboflux/internal/core.
func (p *Pass) RelPath() string {
	return relPath(p.ModulePath, p.Pkg.Path)
}

func relPath(modulePath, pkgPath string) string {
	if pkgPath == modulePath {
		return ""
	}
	if len(pkgPath) > len(modulePath)+1 && pkgPath[:len(modulePath)+1] == modulePath+"/" {
		return pkgPath[len(modulePath)+1:]
	}
	return pkgPath
}

// TypeInPackages reports whether t (after pointer indirection) is a named
// type defined in a package whose module-relative path is in rels.
func (p *Pass) TypeInPackages(t types.Type, rels ...string) (*types.Named, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil, false
	}
	rel := relPath(p.ModulePath, named.Obj().Pkg().Path())
	for _, r := range rels {
		if rel == r {
			return named, true
		}
	}
	return nil, false
}

// CalleeIdent returns the identifier naming the function in a call's Fun
// or a function-valued expression: f, pkg.F or x.m, also when
// parenthesised or explicitly instantiated (f[T], f[T1, T2]). Nil for
// anything else.
func CalleeIdent(fun ast.Expr) *ast.Ident {
	for {
		switch e := fun.(type) {
		case *ast.ParenExpr:
			fun = e.X
		case *ast.IndexExpr:
			fun = e.X
		case *ast.IndexListExpr:
			fun = e.X
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			return e.Sel
		default:
			return nil
		}
	}
}

// Callee returns the declared function a call's Fun (or a function-valued
// expression) names, seen through CalleeIdent's forms. An instantiation of
// a generic function, or a method of an instantiated generic type,
// resolves to its Origin: the *types.Func its declaration defines. Nil for
// dynamic calls, conversions and builtins.
func Callee(info *types.Info, fun ast.Expr) *types.Func {
	id := CalleeIdent(fun)
	if id == nil {
		return nil
	}
	f, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	return f.Origin()
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Severity Severity
	Position token.Position
	Message  string
}

// SortDiagnostics orders findings by file, line, column, analyzer, message,
// so driver output and golden files are stable.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
