package analyzers

import (
	"go/ast"
	"go/types"
	"path/filepath"

	"turboflux/internal/analysis"
)

// oraclePkg and oracleFile locate the DCG oracle: the declarative fixpoint
// of the edge transition model (the paper's Algorithm 1), kept in
// internal/dcg/spec.go. It recomputes the whole DCG from scratch and must
// never leak into the incremental fast path. No production code outside
// spec.go references it; a cold path that ever needs it must say so with
// //tf:oracle-ok, and everything else that wants it belongs in _test.go
// files, which turboflux-vet does not load.
const (
	oraclePkg  = "internal/dcg"
	oracleFile = "spec.go"
)

// OracleIsolation flags references to objects declared in the oracle file
// from production code.
var OracleIsolation = &analysis.Analyzer{
	Name: "oracle-isolation",
	Doc:  "the DCG fixpoint oracle (internal/dcg/spec.go) must stay out of production fast paths",
	Run:  runOracleIsolation,
}

func runOracleIsolation(pass *analysis.Pass) error {
	for _, file := range pass.Pkg.Files {
		ann := pass.Annotations(file)
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.Pkg.TypesInfo.Uses[id]
			if obj == nil || !isOracleObject(pass, obj) {
				return true
			}
			// References inside the oracle file itself are its own business.
			if filepath.Base(pass.Fset.Position(id.Pos()).Filename) == oracleFile &&
				pass.RelPath() == oraclePkg {
				return true
			}
			if fn := enclosingFuncDecl(file, id.Pos()); fn != nil && ann.FuncAnnotated(fn, "oracle-ok") {
				return true
			}
			if ann.At(id.Pos(), "oracle-ok") {
				return true
			}
			pass.Reportf(id.Pos(),
				"reference to DCG oracle %s (declared in %s/%s) from production code; the fixpoint oracle is for tests and oracle helpers only (annotate the enclosing function //tf:oracle-ok if it is a cold oracle helper)",
				obj.Name(), oraclePkg, oracleFile)
			return true
		})
	}
	return nil
}

// isOracleObject reports whether obj is declared in the oracle file of the
// oracle package.
func isOracleObject(pass *analysis.Pass, obj types.Object) bool {
	pkg := obj.Pkg()
	if pkg == nil {
		return false
	}
	if rel := relOf(pass, pkg.Path()); rel != oraclePkg {
		return false
	}
	pos := pass.Fset.Position(obj.Pos())
	return filepath.Base(pos.Filename) == oracleFile
}

func relOf(pass *analysis.Pass, pkgPath string) string {
	if pkgPath == pass.ModulePath {
		return ""
	}
	prefix := pass.ModulePath + "/"
	if len(pkgPath) > len(prefix) && pkgPath[:len(prefix)] == prefix {
		return pkgPath[len(prefix):]
	}
	return pkgPath
}
