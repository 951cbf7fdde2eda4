package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"turboflux/internal/analysis"
)

// UncheckedError flags call statements that discard an error result.
// Silent error loss in the streaming paths (a failed Apply in a fan-out, a
// swallowed encode error in the harness) corrupts experiment results
// without a trace. Only non-test code is loaded, so tests may stay terse.
// Deliberate discards are annotated //tf:unchecked-ok.
var UncheckedError = &analysis.Analyzer{
	Name: "unchecked-error",
	Doc:  "error results must be checked (or explicitly discarded with //tf:unchecked-ok)",
	Run:  runUncheckedError,
}

// errWhitelist lists callees whose error results are conventionally
// ignored: terminal printing (the error is unactionable) and writers that
// are documented never to fail.
var errWhitelist = []string{
	"fmt.Print",
	"fmt.Fprint",
	"(*strings.Builder).",
	"(*bytes.Buffer).",
	"(*text/tabwriter.Writer).",
}

func runUncheckedError(pass *analysis.Pass) error {
	for _, file := range pass.Pkg.Files {
		ann := pass.Annotations(file)
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch st := n.(type) {
			case *ast.ExprStmt:
				call, _ = st.X.(*ast.CallExpr)
			case *ast.GoStmt:
				call = st.Call
			case *ast.DeferStmt:
				call = st.Call
			}
			if call == nil {
				return true
			}
			if !returnsError(pass, call) || whitelisted(pass, call) {
				return true
			}
			if ann.At(call.Pos(), "unchecked-ok") {
				return true
			}
			pass.Reportf(call.Pos(),
				"result of %s includes an error that is discarded; handle it or annotate //tf:unchecked-ok",
				calleeName(pass, call))
			return true
		})
	}
	return nil
}

// returnsError reports whether the call's result type is or contains error.
func returnsError(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.Pkg.TypesInfo.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

func whitelisted(pass *analysis.Pass, call *ast.CallExpr) bool {
	name := calleeName(pass, call)
	for _, w := range errWhitelist {
		if strings.HasPrefix(name, w) {
			return true
		}
	}
	return false
}

// calleeName renders the callee like go/types.Func.FullName:
// "fmt.Println", "(*bytes.Buffer).WriteString", or the expression text for
// dynamic calls.
func calleeName(pass *analysis.Pass, call *ast.CallExpr) string {
	if f := analysis.Callee(pass.Pkg.TypesInfo, call.Fun); f != nil {
		return f.FullName()
	}
	if id := analysis.CalleeIdent(call.Fun); id != nil {
		return id.Name
	}
	return "call"
}
