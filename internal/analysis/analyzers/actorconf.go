package analyzers

import (
	"go/ast"
	"go/types"
	"sort"

	"turboflux/internal/analysis"
)

// actorOwnedRootTypes are the root-package engine types whose access the
// server serializes through its engine-owner goroutine (DESIGN.md §10).
// Their declarations must carry //tf:actor-owned so the contract is
// visible at the definition site; the confinement proof below treats them
// as owned whether or not the directive is present.
var actorOwnedRootTypes = map[string]bool{
	"MultiEngine": true,
	"Engine":      true,
}

// ActorConfinement proves the engine-owner actor discipline: inside
// internal/server and internal/shard, methods of actor-owned types (the
// engine surface, the placement table) may only be called from functions
// reachable — through same-package calls — from an //tf:actor-loop root.
// The roots are what a server.Mailbox runs: every function passed to
// (*server.Mailbox).Start must carry //tf:actor-loop, and a root may be
// referenced only there or called from reachable code, so nothing but the
// mailbox goroutine runs it. A conn or subscriber handler touching the
// engine directly would race the owner; //tf:actor-ok on the call line
// exempts deliberate pre-start or immutable-state access. In the root
// package it additionally checks that every engine type's declaration
// carries //tf:actor-owned.
var ActorConfinement = &analysis.Analyzer{
	Name: "actor-confinement",
	Doc:  "engine access in internal/server and internal/shard must stay on the mailbox goroutine (//tf:actor-loop roots passed to Mailbox.Start)",
	Run:  runActorConfinement,
}

func runActorConfinement(pass *analysis.Pass) error {
	switch pass.RelPath() {
	case "":
		checkOwnedDirectives(pass)
		return nil
	case "internal/server", "internal/shard":
		return checkConfinement(pass)
	default:
		return nil
	}
}

// checkOwnedDirectives reports root-package engine types whose
// declarations are missing the //tf:actor-owned directive.
func checkOwnedDirectives(pass *analysis.Pass) {
	for _, file := range pass.Pkg.Files {
		ann := pass.Annotations(file)
		for _, d := range file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !actorOwnedRootTypes[ts.Name.Name] {
					continue
				}
				if ann.DeclAnnotated(gd.Doc, gd.Pos(), "actor-owned") ||
					ann.DeclAnnotated(ts.Doc, ts.Pos(), "actor-owned") {
					continue
				}
				pass.Reportf(ts.Pos(),
					"type %s is actor-owned (the server serializes all access through the engine-owner goroutine) but its declaration lacks //tf:actor-owned",
					ts.Name.Name)
			}
		}
	}
}

// checkConfinement runs the call-graph proof over internal/server or
// internal/shard.
func checkConfinement(pass *analysis.Pass) error {
	// Owned types visible here: the hardcoded root-package engine types
	// plus any type declared in this package with //tf:actor-owned (the
	// shard router's placement table; an annotated interface would have its
	// interface-mediated calls caught too).
	ownedLocal := map[*types.TypeName]bool{}
	for _, file := range pass.Pkg.Files {
		ann := pass.Annotations(file)
		for _, d := range file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if !ann.DeclAnnotated(gd.Doc, gd.Pos(), "actor-owned") &&
					!ann.DeclAnnotated(ts.Doc, ts.Pos(), "actor-owned") {
					continue
				}
				if tn, ok := pass.Pkg.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
					ownedLocal[tn] = true
				}
			}
		}
	}

	type ownedCall struct {
		call     *ast.CallExpr
		method   string
		typeName string
	}
	type confInfo struct {
		decl    *ast.FuncDecl
		file    *ast.File
		callees []*types.Func
		owned   []ownedCall
	}

	decls := map[*types.Func]*confInfo{}
	var order []*types.Func
	callees := map[*ast.Ident]bool{} // identifiers naming a called function
	var starts []*ast.CallExpr       // (*server.Mailbox).Start calls
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
			info := &confInfo{decl: fn, file: file}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id := analysis.CalleeIdent(call.Fun); id != nil {
					callees[id] = true
				}
				f := analysis.Callee(pass.Pkg.TypesInfo, call.Fun)
				if f == nil {
					return true
				}
				if isMailboxStart(pass, f) {
					starts = append(starts, call)
				}
				if tn, ok := ownedReceiver(pass, f, ownedLocal); ok {
					info.owned = append(info.owned, ownedCall{call: call, method: f.Name(), typeName: tn})
				} else if f.Pkg() == pass.Pkg.Types {
					info.callees = append(info.callees, f)
				}
				return true
			})
			decls[obj] = info
			order = append(order, obj)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		return decls[order[i]].decl.Pos() < decls[order[j]].decl.Pos()
	})

	// BFS the same-package call graph from the //tf:actor-loop roots.
	roots := map[*types.Func]bool{}
	reachable := map[*types.Func]bool{}
	var queue []*types.Func
	for _, obj := range order {
		info := decls[obj]
		if pass.Annotations(info.file).FuncAnnotated(info.decl, "actor-loop") {
			roots[obj] = true
			reachable[obj] = true
			queue = append(queue, obj)
		}
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		for _, callee := range decls[obj].callees {
			if reachable[callee] || decls[callee] == nil {
				continue
			}
			reachable[callee] = true
			queue = append(queue, callee)
		}
	}

	for _, obj := range order {
		if reachable[obj] {
			continue
		}
		info := decls[obj]
		ann := pass.Annotations(info.file)
		for _, oc := range info.owned {
			if ann.At(oc.call.Pos(), "actor-ok") {
				continue
			}
			pass.Reportf(oc.call.Fun.Pos(),
				"%s.%s called in %s, which no //tf:actor-loop root reaches: only the engine-owner goroutine may touch actor-owned types — route the call through the owner's mailbox (//tf:actor-ok exempts pre-start or immutable-state access)",
				oc.typeName, oc.method, declName(info.decl))
		}
	}

	// The proof holds only if the roots are exactly what the mailbox runs:
	// every function handed to Mailbox.Start is a root...
	startArgs := map[*ast.Ident]bool{}
	for _, call := range starts {
		for _, arg := range call.Args {
			if id := analysis.CalleeIdent(arg); id != nil {
				startArgs[id] = true
				if roots[analysis.Callee(pass.Pkg.TypesInfo, arg)] {
					continue
				}
			}
			pass.Reportf(arg.Pos(),
				"%s runs on the mailbox goroutine (passed to Mailbox.Start) but is not a //tf:actor-loop function, so the confinement proof does not start there: pass a declared function carrying //tf:actor-loop",
				types.ExprString(arg))
		}
	}
	// ...and a root runs nowhere else: a call from a connection goroutine, or
	// a function value that escapes, would run it beside the mailbox.
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || startArgs[id] {
				return true
			}
			f := analysis.Callee(pass.Pkg.TypesInfo, id)
			if !roots[f] {
				return true
			}
			where := "package scope"
			if fn := enclosingFuncDecl(file, id.Pos()); fn != nil {
				caller, _ := pass.Pkg.TypesInfo.Defs[fn.Name].(*types.Func)
				if callees[id] && reachable[caller] {
					return true
				}
				where = declName(fn)
			}
			pass.Reportf(id.Pos(),
				"//tf:actor-loop function %s is referenced in %s, which no //tf:actor-loop root reaches: only the mailbox may run it — pass it to Mailbox.Start and send the mailbox a request instead",
				declName(decls[f].decl), where)
			return true
		})
	}
	return nil
}

// isMailboxStart reports whether f is (*server.Mailbox).Start, recognized
// by name and package the way actorOwnedRootTypes recognizes the engine
// types.
func isMailboxStart(pass *analysis.Pass, f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || f.Name() != "Start" {
		return false
	}
	named, ok := pass.TypeInPackages(sig.Recv().Type(), "internal/server")
	return ok && named.Obj().Name() == "Mailbox"
}

// ownedReceiver reports whether f is a method of an actor-owned type: a
// root-package engine type or a locally //tf:actor-owned-annotated type
// (including interfaces, so calls through the engine-surface interface
// count). It returns the owned type's name.
func ownedReceiver(pass *analysis.Pass, f *types.Func, ownedLocal map[*types.TypeName]bool) (string, bool) {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	if ownedLocal[named.Obj()] {
		return named.Obj().Name(), true
	}
	if _, inRoot := pass.TypeInPackages(named, ""); inRoot && actorOwnedRootTypes[named.Obj().Name()] {
		return named.Obj().Name(), true
	}
	return "", false
}
