package analyzers

import (
	"go/ast"
	"go/types"
	"sort"

	"turboflux/internal/analysis"
)

// HotpathMap guards the dense-layout contract of DESIGN.md §16: per-update
// evaluation state is slot-indexed slices, never hash maps — a map probe
// per DCG edge costs a hash plus a pointer chase where the dense layout
// costs one bounds-checked load. In internal/core it reports map index,
// map range and delete() operations in any function reachable (through
// same-package calls) from an eval entry point; in internal/dcg — whose
// maintenance code runs only inside evaluation — and internal/mqo — whose
// sharing key is computed on the multi-query registration path — it checks
// every function.
//
// Exemptions: //tf:map-ok on the operation's line suppresses one finding
// (e.g. a map probed once per vertex declaration, never per edge update);
// //tf:map-ok or //tf:oracle-ok on the function exempts it wholesale
// (oracle fixpoints and test-support validators are deliberately
// map-shaped).
var HotpathMap = &analysis.Analyzer{
	Name: "hotpath-map",
	Doc:  "no hash-map operations on eval paths: per-update state is slot-indexed dense slices (DESIGN.md §16)",
	// Like hotpath-alloc, this is a performance discipline, not a
	// correctness contract: findings warn but do not fail CI.
	Severity: analysis.SeverityWarn,
	Run:      runHotpathMap,
}

func runHotpathMap(pass *analysis.Pass) error {
	rel := pass.RelPath()
	if rel != "internal/core" && rel != "internal/dcg" && rel != "internal/mqo" {
		return nil
	}

	decls := map[*types.Func]*declInfo{}
	var order []*types.Func
	for _, file := range pass.Pkg.Files {
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, ok := pass.Pkg.TypesInfo.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			info := &declInfo{decl: fn, file: file}
			collectCalls(pass, fn.Body, info)
			decls[obj] = info
			order = append(order, obj)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		return decls[order[i]].decl.Pos() < decls[order[j]].decl.Pos()
	})

	exempt := func(info *declInfo) bool {
		ann := pass.Annotations(info.file)
		return ann.FuncAnnotated(info.decl, "map-ok") ||
			ann.FuncAnnotated(info.decl, "oracle-ok")
	}

	if rel == "internal/dcg" || rel == "internal/mqo" {
		for _, obj := range order {
			info := decls[obj]
			if exempt(info) {
				continue
			}
			reportMapOps(pass, info, "")
		}
		return nil
	}

	// internal/core: BFS the same-package call graph from the eval entry
	// points (shared with eval-readonly), then check the reachable set.
	origin := map[*types.Func]string{}
	var queue []*types.Func
	for _, obj := range order {
		info := decls[obj]
		if evalEntryPoints[obj.Name()] ||
			pass.Annotations(info.file).FuncAnnotated(info.decl, "eval-path") {
			origin[obj] = declName(info.decl)
			queue = append(queue, obj)
		}
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		for _, callee := range decls[obj].callees {
			if _, seen := origin[callee]; seen {
				continue
			}
			if decls[callee] == nil {
				continue
			}
			origin[callee] = origin[obj]
			queue = append(queue, callee)
		}
	}
	for _, obj := range order {
		root, reachable := origin[obj]
		if !reachable {
			continue
		}
		info := decls[obj]
		if exempt(info) {
			continue
		}
		reportMapOps(pass, info, root)
	}
	return nil
}

// reportMapOps walks one function body and reports every map operation
// not suppressed by a line-level //tf:map-ok. root names the eval entry
// point the function was reached from; empty for the package-wide rule.
func reportMapOps(pass *analysis.Pass, info *declInfo, root string) {
	ann := pass.Annotations(info.file)
	name := declName(info.decl)
	report := func(n ast.Node, op string) {
		if ann.At(n.Pos(), "map-ok") {
			return
		}
		if root != "" {
			pass.Reportf(n.Pos(),
				"%s in %s, reachable from eval entry point %s: per-update state must be slot-indexed dense slices (DESIGN.md §16); annotate //tf:map-ok if the operation is cold",
				op, name, root)
			return
		}
		pass.Reportf(n.Pos(),
			"%s in %s: this package runs on the eval path and must keep per-update state in slot-indexed dense slices (DESIGN.md §16); annotate //tf:map-ok if the operation is cold",
			op, name)
	}
	ast.Inspect(info.decl.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.IndexExpr:
			if isMapExpr(pass, e.X) {
				report(e, "map index")
			}
		case *ast.RangeStmt:
			if isMapExpr(pass, e.X) {
				report(e, "map range")
			}
		case *ast.CallExpr:
			id, ok := e.Fun.(*ast.Ident)
			if !ok {
				return true
			}
			if b, ok := pass.Pkg.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
				report(e, "map delete")
			}
		}
		return true
	})
}

// isMapExpr reports whether e's type is a hash map.
func isMapExpr(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.Pkg.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
