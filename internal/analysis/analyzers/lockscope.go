package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"turboflux/internal/analysis"
)

// rootEvalMethods are the root-package engine methods that run
// evaluation; calling one while holding a lock couples the lock to the
// whole matching pipeline.
var rootEvalMethods = map[string]bool{
	"Apply":          true,
	"ApplyAll":       true,
	"ApplyBatch":     true,
	"ApplyBatchFunc": true,
	"Insert":         true,
	"Delete":         true,
	"InitialMatches": true,
}

// LockScope bans long or re-entrant work inside sync.Mutex / sync.RWMutex
// critical sections — the lock-held-across-barrier deadlocks the actor
// design exists to avoid. Within a Lock/RLock → first matching Unlock
// span (to the end of the function when the unlock is deferred), it
// reports calls into evaluation (core eval entry points, root-package
// engine methods, //tf:eval-path functions in the same package), I/O (the
// net and os packages, and internal/durable — the WAL), and worker-pool
// dispatch (internal/fanout from outside the package). //tf:lock-ok
// <reason> on the call line exempts deliberate nonblocking control
// operations.
var LockScope = &analysis.Analyzer{
	Name: "lock-scope",
	Doc:  "no eval, I/O or pool dispatch inside mutex critical sections (//tf:lock-ok exempts)",
	Run:  runLockScope,
}

// lockEvent is one mutex Lock/Unlock call in a function body.
type lockEvent struct {
	key      string // rendered mutex expression, e.g. "s.mu"
	pos      token.Pos
	acquire  bool
	deferred bool
}

func runLockScope(pass *analysis.Pass) error {
	rel := pass.RelPath()

	// //tf:eval-path functions declared anywhere in this package are eval
	// roots wherever they are called from.
	evalPath := map[*types.Func]bool{}
	for _, file := range pass.Pkg.Files {
		ann := pass.Annotations(file)
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if ann.FuncAnnotated(fn, "eval-path") {
				if obj, ok := pass.Pkg.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					evalPath[obj] = true
				}
			}
		}
	}

	for _, file := range pass.Pkg.Files {
		ann := pass.Annotations(file)
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkLockSpans(pass, rel, fn, ann, evalPath)
		}
	}
	return nil
}

func checkLockSpans(pass *analysis.Pass, rel string, fn *ast.FuncDecl,
	ann *analysis.Annotations, evalPath map[*types.Func]bool) {
	var events []lockEvent
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		var call *ast.CallExpr
		deferred := false
		switch n := n.(type) {
		case *ast.DeferStmt:
			call = n.Call
			deferred = true
		case *ast.CallExpr:
			call = n
		default:
			return true
		}
		key, acquire, ok := mutexOp(pass, call)
		if !ok {
			return true
		}
		events = append(events, lockEvent{key: key, pos: call.Pos(), acquire: acquire, deferred: deferred})
		return !deferred
	})
	if len(events) == 0 {
		return
	}

	// For each acquisition, the critical section runs to the first
	// later non-deferred release of the same mutex, or to the end of the
	// function when the release is deferred (or missing). Nested
	// lock/unlock pairs of *other* mutexes don't end the span; a second
	// acquisition of the same mutex between Lock and Unlock would be a
	// deadlock the race detector catches, not this analyzer's business.
	type span struct {
		key      string
		from, to token.Pos
	}
	var spans []span
	for _, ev := range events {
		if !ev.acquire || ev.deferred {
			continue
		}
		end := fn.Body.End()
		for _, rl := range events {
			if !rl.acquire && !rl.deferred && rl.key == ev.key && rl.pos > ev.pos {
				end = rl.pos
				break
			}
		}
		spans = append(spans, span{key: ev.key, from: ev.pos, to: end})
	}
	if len(spans) == 0 {
		return
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		desc, banned := bannedCall(pass, rel, call, evalPath)
		if !banned {
			return true
		}
		for _, sp := range spans {
			if call.Pos() <= sp.from || call.Pos() >= sp.to {
				continue
			}
			if ann.At(call.Pos(), "lock-ok") {
				break
			}
			pass.Reportf(call.Fun.Pos(),
				"%s inside the %s critical section of %s: critical sections must stay short and self-contained — move the call outside the lock or annotate //tf:lock-ok with a reason",
				desc, sp.key, declName(fn))
			break
		}
		return true
	})
}

// mutexOp classifies call as a sync.Mutex / sync.RWMutex operation and
// returns the rendered mutex expression and whether it acquires.
func mutexOp(pass *analysis.Pass, call *ast.CallExpr) (key string, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	f, isFunc := pass.Pkg.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFunc {
		return "", false, false
	}
	sig, isSig := f.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", false, false
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", false, false
	}
	if name := named.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return "", false, false
	}
	return types.ExprString(sel.X), acquire, true
}

// bannedCall classifies call as eval, I/O or pool dispatch. rel is the
// analyzed package's module-relative path (same-package fan-out code may
// use its own internals under its own lock).
func bannedCall(pass *analysis.Pass, rel string, call *ast.CallExpr, evalPath map[*types.Func]bool) (string, bool) {
	f := analysis.Callee(pass.Pkg.TypesInfo, call.Fun)
	if f == nil {
		return "", false
	}
	if evalPath[f] {
		return "call to eval-path function " + f.Name(), true
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if named, ok := pass.TypeInPackages(recv, "internal/core"); ok &&
			named.Obj().Name() == "Engine" && evalEntryPoints[f.Name()] {
			return "eval entry point core.Engine." + f.Name(), true
		}
		if named, ok := pass.TypeInPackages(recv, ""); ok &&
			actorOwnedRootTypes[named.Obj().Name()] && rootEvalMethods[f.Name()] {
			return "evaluation via " + named.Obj().Name() + "." + f.Name(), true
		}
	}
	pkg := f.Pkg()
	if pkg == nil {
		return "", false
	}
	switch pkg.Path() {
	case "net", "os":
		return pkg.Path() + " I/O call " + f.Name(), true
	}
	// net.Conn and friends are interfaces from package net even when the
	// dynamic value is something else; methods on net types are caught by
	// the package check above. Module-internal bans:
	switch pkg.Path() {
	case pass.ModulePath + "/internal/durable":
		return "WAL I/O call durable." + f.Name(), true
	case pass.ModulePath + "/internal/fanout":
		if rel != "internal/fanout" {
			return "worker-pool dispatch fanout." + f.Name(), true
		}
	}
	return "", false
}
