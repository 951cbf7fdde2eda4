package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"turboflux/internal/analysis"
)

// graphMutators are the methods of internal/graph that change what an
// evaluation reads: the *graph.Graph methods that change graph state, and
// the *graph.Window methods that change the versioned view engines read
// the graph through inside an evaluation window. Everything else on the
// two types is a pure read (neither keeps lazy caches), which is what
// makes concurrent evaluation sound.
var graphMutators = map[string]bool{
	"Graph.AddVertex":    true,
	"Graph.EnsureVertex": true,
	"Graph.InsertEdge":   true,
	"Graph.DeleteEdge":   true,
	"Window.Add":         true,
	"Window.Reset":       true,
}

// evalEntryPoints are the core.Engine methods the multi-query fan-out
// invokes inside the parallel window, i.e. while other engines may be
// reading the same graph concurrently. They are implicit roots of the
// eval-readonly reachability check; //tf:eval-path marks additional
// roots.
var evalEntryPoints = map[string]bool{
	"EvalInsertedEdge":  true,
	"EvalBeforeDelete":  true,
	"InitialMatches":    true,
	"NotifyVertexAdded": true,
}

// EvalReadonly proves the frozen-graph window of the parallel fan-out
// (DESIGN.md §11): during evaluation, engines only read the shared data
// graph. In internal/core it reports any graph-mutator call reachable
// (through same-package calls) from an eval entry point; in
// internal/dcg — whose code runs only inside evaluation — it reports
// every graph-mutator call outright. //tf:graph-write on a function
// exempts coordinator-only code.
var EvalReadonly = &analysis.Analyzer{
	Name: "eval-readonly",
	Doc:  "eval paths must never mutate the shared data graph (frozen-graph window of the parallel fan-out)",
	Run:  runEvalReadonly,
}

// mutCall is one call to a graph mutator.
type mutCall struct {
	pos  token.Pos
	name string // mutator, as Type.Method
}

// declInfo is one top-level function's slice of the same-package call
// graph.
type declInfo struct {
	decl    *ast.FuncDecl
	file    *ast.File
	callees []*types.Func // same-package calls, in source order
	muts    []mutCall     // graph-mutator calls, in source order
}

func runEvalReadonly(pass *analysis.Pass) error {
	rel := pass.RelPath()
	if rel != "internal/core" && rel != "internal/dcg" {
		return nil
	}

	decls := map[*types.Func]*declInfo{}
	var order []*types.Func // source order, for deterministic reports
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

	if rel == "internal/dcg" {
		// DCG maintenance runs only inside evaluation, so every function
		// in the package is on the eval path.
		for _, obj := range order {
			info := decls[obj]
			if pass.Annotations(info.file).FuncAnnotated(info.decl, "graph-write") {
				continue
			}
			for _, mc := range info.muts {
				pass.Reportf(mc.pos,
					"%s called in %s: DCG maintenance runs inside the frozen-graph eval window and must not mutate the data graph (//tf:graph-write exempts coordinator-only code)",
					mc.name, declName(info.decl))
			}
		}
		return nil
	}

	// internal/core: BFS the same-package call graph from the eval entry
	// points, then report mutator calls in the reachable set.
	origin := map[*types.Func]string{} // reached func -> entry point name
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
		if pass.Annotations(info.file).FuncAnnotated(info.decl, "graph-write") {
			continue
		}
		for _, mc := range info.muts {
			pass.Reportf(mc.pos,
				"%s called in %s, reachable from eval entry point %s: evaluation runs against a frozen graph during the parallel fan-out — move the mutation to the coordinator",
				mc.name, declName(info.decl), root)
		}
	}
	return nil
}

// collectCalls records body's graph-mutator calls and same-package
// callees into info. Function literals are attributed to the enclosing
// declaration: a closure built on an eval path runs on it. A call to an
// instantiation of a generic function reaches the function's declaration.
func collectCalls(pass *analysis.Pass, body ast.Node, info *declInfo) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.Callee(pass.Pkg.TypesInfo, call.Fun)
		if fn == nil {
			return true
		}
		if name, ok := graphMutator(pass, fn); ok {
			info.muts = append(info.muts, mutCall{pos: call.Fun.Pos(), name: name})
			return true
		}
		if fn.Pkg() == pass.Pkg.Types {
			info.callees = append(info.callees, fn)
		}
		return true
	})
}

// graphMutator reports whether fn is a state-changing method of
// graph.Graph or graph.Window, and names it Type.Method.
func graphMutator(pass *analysis.Pass, fn *types.Func) (string, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	named, ok := pass.TypeInPackages(sig.Recv().Type(), "internal/graph")
	if !ok {
		return "", false
	}
	name := named.Obj().Name() + "." + fn.Name()
	return name, graphMutators[name]
}

// declName renders "Engine.EvalInsertedEdge" for methods, "New" for
// plain functions.
func declName(fn *ast.FuncDecl) string {
	name := fn.Name.Name
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return name
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + name
	}
	return name
}
