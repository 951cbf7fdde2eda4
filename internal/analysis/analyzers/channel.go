package analyzers

import (
	"go/ast"
	"go/types"

	"turboflux/internal/analysis"
)

// servingScope lists the module-relative package paths on the serving /
// emission path, where every queue must have an explicit bound: the root
// package hosts the engines the server drives, internal/server fans match
// events out to subscribers and live WAL chunks out to followers over
// bounded queues, internal/fanout moves evaluation tasks between the
// coordinator and the worker pool, internal/shard queues fan-out tasks
// between the router actor and the per-shard fanners, and
// cmd/turboflux-serve / cmd/turboflux-shard wire the serving loops
// together.
var servingScope = map[string]bool{
	"":                    true,
	"internal/server":     true,
	"internal/fanout":     true,
	"internal/shard":      true,
	"cmd/turboflux-serve": true,
	"cmd/turboflux-shard": true,
}

// ChannelDiscipline preserves the bounded-queue backpressure design
// (DESIGN.md §10): a make(chan ...) in a serving-scope package must state
// an explicit capacity. An accidentally unbuffered data channel turns the
// slow-consumer policy into a synchronous rendezvous and can stall the
// actor. Channels of struct{} are exempt — they carry no data, only
// close/signal edges — and //tf:unbuffered-ok <reason> marks deliberate
// rendezvous channels.
var ChannelDiscipline = &analysis.Analyzer{
	Name: "channel-discipline",
	Doc:  "serving-path channels must be buffered with an explicit capacity (//tf:unbuffered-ok exempts rendezvous)",
	Run:  runChannelDiscipline,
}

func runChannelDiscipline(pass *analysis.Pass) error {
	if !servingScope[pass.RelPath()] {
		return nil
	}
	for _, file := range pass.Pkg.Files {
		ann := pass.Annotations(file)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "make" || len(call.Args) == 0 {
				return true
			}
			if _, isBuiltin := pass.Pkg.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			tv, ok := pass.Pkg.TypesInfo.Types[call.Args[0]]
			if !ok {
				return true
			}
			ch, ok := tv.Type.Underlying().(*types.Chan)
			if !ok {
				return true
			}
			if len(call.Args) >= 2 && !isZeroLiteral(call.Args[1]) {
				return true // explicit (possibly variable) capacity
			}
			if st, ok := ch.Elem().Underlying().(*types.Struct); ok && st.NumFields() == 0 {
				return true // pure signal channel
			}
			if ann.At(call.Pos(), "unbuffered-ok") {
				return true
			}
			pass.Reportf(call.Pos(),
				"unbuffered channel on the serving path defeats the bounded-queue backpressure design: give it an explicit capacity or annotate //tf:unbuffered-ok with a reason")
			return true
		})
	}
	return nil
}
