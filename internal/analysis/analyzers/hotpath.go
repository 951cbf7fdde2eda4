package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"turboflux/internal/analysis"
)

// HotpathAlloc checks functions annotated //tf:hotpath — the per-update
// maintenance and search loops, where one allocation per call multiplies
// into one allocation per DCG edge or per search node. It flags:
//
//   - fmt.Sprintf/Sprint/Sprintln/Errorf calls (always allocate);
//   - function literals that capture enclosing variables (the closure and
//     its captures escape to the heap when passed to a non-inlined callee);
//   - self-appends to a slice declared in the function without capacity
//     (`var s []T; ... s = append(s, x)` regrows under the loop).
//
// Individual findings are suppressed with //tf:alloc-ok on the line.
var HotpathAlloc = &analysis.Analyzer{
	Name: "hotpath-alloc",
	Doc:  "no avoidable allocations in //tf:hotpath functions",
	// Allocation discipline is a performance concern, not a correctness
	// contract: findings are reported but do not fail CI.
	Severity: analysis.SeverityWarn,
	Run:      runHotpathAlloc,
}

// hotpathEntryPoints are function names checked even without a
// //tf:hotpath annotation: the batch evaluation entry points are hot by
// construction (one call covers a whole batch of updates), and new
// implementations of these names must not silently opt out of the
// allocation discipline.
var hotpathEntryPoints = map[string]bool{
	"ApplyBatch":     true,
	"ApplyBatchFunc": true,
}

func runHotpathAlloc(pass *analysis.Pass) error {
	for _, file := range pass.Pkg.Files {
		ann := pass.Annotations(file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !ann.FuncAnnotated(fn, "hotpath") && !hotpathEntryPoints[fn.Name.Name] {
				continue
			}
			checkHotFunc(pass, ann, fn)
		}
	}
	return nil
}

func checkHotFunc(pass *analysis.Pass, ann *analysis.Annotations, fn *ast.FuncDecl) {
	sliceInits := collectSliceInits(pass, fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			checkFmtAlloc(pass, ann, fn, e)
		case *ast.FuncLit:
			checkClosureCapture(pass, ann, fn, e)
		case *ast.AssignStmt:
			checkAppendGrowth(pass, ann, fn, e, sliceInits)
		}
		return true
	})
}

func checkFmtAlloc(pass *analysis.Pass, ann *analysis.Annotations, fn *ast.FuncDecl, call *ast.CallExpr) {
	callee := analysis.Callee(pass.Pkg.TypesInfo, call.Fun)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "fmt" {
		return
	}
	name := callee.Name()
	if name != "Sprintf" && name != "Sprint" && name != "Sprintln" && name != "Errorf" {
		return
	}
	if ann.At(call.Pos(), "alloc-ok") {
		return
	}
	pass.Reportf(call.Pos(),
		"fmt.%s allocates on every call inside hot-path function %s; format outside the hot path or annotate //tf:alloc-ok",
		name, fn.Name.Name)
}

// checkClosureCapture flags function literals that capture variables of
// the enclosing function: captured variables (and the closure itself) are
// heap-allocated when the literal escapes into a callee.
func checkClosureCapture(pass *analysis.Pass, ann *analysis.Annotations, fn *ast.FuncDecl, lit *ast.FuncLit) {
	if ann.At(lit.Pos(), "alloc-ok") {
		return
	}
	captured := make(map[string]bool)
	var order []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Pkg.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured = declared inside fn (params included) but before the
		// literal itself.
		if v.Pos() >= fn.Pos() && v.Pos() < lit.Pos() && !captured[v.Name()] {
			captured[v.Name()] = true
			order = append(order, v.Name())
		}
		return true
	})
	if len(order) == 0 {
		return
	}
	pass.Reportf(lit.Pos(),
		"closure in hot-path function %s captures %s and may escape to the heap on every call; restructure as a plain loop or annotate //tf:alloc-ok",
		fn.Name.Name, strings.Join(order, ", "))
}

// collectSliceInits maps each local slice variable of fn to whether its
// declaration preallocates capacity (make with an explicit length or
// capacity, or any non-empty initializer expression).
func collectSliceInits(pass *analysis.Pass, fn *ast.FuncDecl) map[*types.Var]bool {
	prealloc := make(map[*types.Var]bool)
	record := func(id *ast.Ident, init ast.Expr) {
		v, ok := pass.Pkg.TypesInfo.Defs[id].(*types.Var)
		if !ok {
			return
		}
		if _, isSlice := v.Type().Underlying().(*types.Slice); !isSlice {
			return
		}
		prealloc[v] = initPreallocates(pass, init)
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok.String() != ":=" || len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i, lhs := range st.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					record(id, st.Rhs[i])
				}
			}
		case *ast.DeclStmt:
			gd, ok := st.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, id := range vs.Names {
					var init ast.Expr
					if i < len(vs.Values) {
						init = vs.Values[i]
					}
					record(id, init)
				}
			}
		}
		return true
	})
	return prealloc
}

// initPreallocates reports whether init gives the slice capacity up front.
func initPreallocates(pass *analysis.Pass, init ast.Expr) bool {
	switch e := init.(type) {
	case nil:
		return false // var s []T
	case *ast.CompositeLit:
		return len(e.Elts) > 0
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok {
			if b, ok := pass.Pkg.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
				if len(e.Args) >= 3 {
					return true
				}
				if len(e.Args) == 2 {
					return !isZeroLiteral(e.Args[1])
				}
				return false
			}
		}
		return true // value produced by a callee, e.g. a preallocated snapshot
	default:
		return true // conversions, received slices, etc.
	}
}

func isZeroLiteral(e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// checkAppendGrowth flags s = append(s, ...) when s is a local slice
// declared without capacity in a hot-path function.
func checkAppendGrowth(pass *analysis.Pass, ann *analysis.Annotations, fn *ast.FuncDecl, st *ast.AssignStmt, prealloc map[*types.Var]bool) {
	if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
		return
	}
	call, ok := st.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return
	}
	funID, ok := call.Fun.(*ast.Ident)
	if !ok {
		return
	}
	if b, ok := pass.Pkg.TypesInfo.Uses[funID].(*types.Builtin); !ok || b.Name() != "append" {
		return
	}
	lhsID, ok := st.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	argID, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return
	}
	v, ok := pass.Pkg.TypesInfo.Uses[lhsID].(*types.Var)
	if !ok {
		if v, ok = pass.Pkg.TypesInfo.Defs[lhsID].(*types.Var); !ok {
			return
		}
	}
	if pass.Pkg.TypesInfo.Uses[argID] != v && pass.Pkg.TypesInfo.Defs[argID] != v {
		return // not self-append
	}
	wasPrealloc, isLocal := prealloc[v]
	if !isLocal || wasPrealloc {
		return
	}
	if ann.At(st.Pos(), "alloc-ok") {
		return
	}
	pass.Reportf(st.Pos(),
		"append grows %s without preallocation in hot-path function %s; declare it with make(..., 0, n) or annotate //tf:alloc-ok",
		v.Name(), fn.Name.Name)
}
