package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"turboflux/internal/analysis"
)

// GoroutineLifecycle enforces the launch-site discipline that keeps the
// server leak-free across Shutdown: every go statement (tests excluded —
// the loader never parses _test.go files) must be named with
// //tf:goroutine <name>, and must be lexically paired with a registered
// shutdown path at the launch site. Four pairings count as tracked:
//
//   - WaitGroup: an Add call precedes the go statement in the enclosing
//     function and the launched body calls Done.
//   - Range-close: the launched body ranges over a channel that some
//     function in the package closes.
//   - Stop-receive: the launched body receives from a channel that some
//     function in the package closes.
//   - Completion: the launched body closes or sends on a channel that
//     some function in the package receives from.
//
// A goroutine with none of these is untracked: nothing in the package can
// observe its exit, which is exactly the leak the shutdown tests hunt
// dynamically.
var GoroutineLifecycle = &analysis.Analyzer{
	Name: "goroutine-lifecycle",
	Doc:  "every go statement needs a //tf:goroutine name and a registered shutdown path",
	Run:  runGoroutineLifecycle,
}

func runGoroutineLifecycle(pass *analysis.Pass) error {
	// Package-wide channel-name indexes: names passed to close(), and
	// names received from (<-ch or range ch). Matching is by the final
	// identifier of the channel expression — lexical, per the launch-site
	// contract, but package-wide so the closer may live in another
	// function or file.
	closed := map[string]bool{}
	received := map[string]bool{}
	methodBodies := map[*types.Func]*ast.FuncDecl{}
	for _, file := range pass.Pkg.Files {
		for _, d := range file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj, ok := pass.Pkg.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					methodBodies[obj] = fn
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
					if _, isBuiltin := pass.Pkg.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
						if name := finalName(n.Args[0]); name != "" {
							closed[name] = true
						}
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					if name := finalName(n.X); name != "" {
						received[name] = true
					}
				}
			case *ast.RangeStmt:
				if isChanExpr(pass, n.X) {
					if name := finalName(n.X); name != "" {
						received[name] = true
					}
				}
			}
			return true
		})
	}

	for _, file := range pass.Pkg.Files {
		ann := pass.Annotations(file)
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !ann.At(gs.Pos(), "goroutine") {
				pass.Reportf(gs.Pos(),
					"naked goroutine: annotate the launch site //tf:goroutine <name> so lifecycle audits can account for it")
			}
			if !goroutineTracked(pass, file, gs, closed, received, methodBodies) {
				pass.Reportf(gs.Pos(),
					"untracked goroutine: no shutdown path is registered at the launch site (pair it with a WaitGroup Add/Done, range or receive over a channel this package closes, or a completion channel this package receives from)")
			}
			return true
		})
	}
	return nil
}

// goroutineTracked reports whether the go statement has one of the four
// recognized shutdown pairings.
func goroutineTracked(pass *analysis.Pass, file *ast.File, gs *ast.GoStmt,
	closed, received map[string]bool, methodBodies map[*types.Func]*ast.FuncDecl) bool {
	// A launched function is looked up by its declaration: analysis.Callee
	// resolves an instantiation (of a generic function, or a method of a
	// generic type) to its Origin.
	var body *ast.BlockStmt
	if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
		body = lit.Body
	} else if decl := methodBodies[analysis.Callee(pass.Pkg.TypesInfo, gs.Call.Fun)]; decl != nil {
		body = decl.Body
	}
	if body == nil {
		return false
	}

	// WaitGroup pairing: Add before the launch in the enclosing function,
	// Done in the launched body.
	if fn := enclosingFuncDecl(file, gs.Pos()); fn != nil {
		addBefore := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && call.Pos() < gs.Pos() &&
				isWaitGroupMethod(pass, call, "Add") {
				addBefore = true
			}
			return true
		})
		if addBefore {
			doneInside := false
			ast.Inspect(body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isWaitGroupMethod(pass, call, "Done") {
					doneInside = true
				}
				return true
			})
			if doneInside {
				return true
			}
		}
	}

	// Channel pairings over the launched body.
	tracked := false
	ast.Inspect(body, func(n ast.Node) bool {
		if tracked {
			return false
		}
		switch n := n.(type) {
		case *ast.RangeStmt:
			// Range-close: the loop ends when the package closes the channel.
			if isChanExpr(pass, n.X) && closed[finalName(n.X)] {
				tracked = true
			}
		case *ast.UnaryExpr:
			// Stop-receive: a receive that unblocks when the package closes
			// the channel.
			if n.Op == token.ARROW && isChanExpr(pass, n.X) && closed[finalName(n.X)] {
				tracked = true
			}
		case *ast.SendStmt:
			// Completion: the goroutine reports its exit on a channel the
			// package receives from.
			if received[finalName(n.Chan)] {
				tracked = true
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if _, isBuiltin := pass.Pkg.TypesInfo.Uses[id].(*types.Builtin); isBuiltin &&
					received[finalName(n.Args[0])] {
					tracked = true
				}
			}
		}
		return true
	})
	return tracked
}

// finalName returns the last identifier of an expression: "done" for both
// done and c.sub.done. Empty when the expression has no trailing
// identifier.
func finalName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.ParenExpr:
		return finalName(e.X)
	}
	return ""
}

// isChanExpr reports whether e has channel type.
func isChanExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// isWaitGroupMethod reports whether call invokes sync.WaitGroup's method
// of the given name.
func isWaitGroupMethod(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	f := analysis.Callee(pass.Pkg.TypesInfo, call.Fun)
	if f == nil || f.Name() != name {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}
