// Package inputs builds one workload's inputs from a seed: the LSBench
// dataset (initial graph + update stream) and the workload's frozen query
// set. The servers under test never see this package's types — only
// g0.txt, qlang patterns and protocol bytes.
package inputs

import (
	"fmt"
	"strconv"

	"turboflux/internal/graph"
	"turboflux/internal/qlang"
	"turboflux/internal/query"
	"turboflux/internal/stream"
	"turboflux/internal/workload"
)

// Spec is a workload's dataset recipe: two runs with equal Spec and seed
// get byte-identical graphs and streams.
type Spec struct {
	Users          int
	StreamFraction float64
	DeletionRate   float64
}

// Inputs is everything one run needs.
type Inputs struct {
	Dataset  *workload.Dataset
	Queries  []*query.Graph
	Names    []string
	Patterns []string
}

// Build generates the dataset for seed and parses the workload's frozen
// query patterns, through dictionaries that map numeric label names to
// themselves as the servers' -numeric-labels does.
func Build(spec Spec, patterns []string, seed int64) (*Inputs, error) {
	ds := workload.LSBench(workload.LSBenchConfig{
		Users:          spec.Users,
		StreamFraction: spec.StreamFraction,
		DeletionRate:   spec.DeletionRate,
		Seed:           seed,
	})
	in := &Inputs{Dataset: ds, Patterns: patterns}
	vd, ed := NumericDict(), NumericDict()
	for i, p := range patterns {
		q, _, err := qlang.Parse(p, vd, ed)
		if err != nil {
			return nil, fmt.Errorf("inputs: pattern %d: %w", i, err)
		}
		in.Queries = append(in.Queries, q)
		in.Names = append(in.Names, fmt.Sprintf("q%02d", i))
	}
	return in, nil
}

// NumericDict interns "0".."255" so label i is named "i".
func NumericDict() *graph.Dict {
	d := graph.NewDict()
	for i := 0; i < 256; i++ {
		d.Intern(strconv.Itoa(i))
	}
	return d
}

// G0Updates renders the initial graph as the update history the servers
// bootstrap from: every vertex declaration, then every edge.
func G0Updates(g *graph.Graph) []stream.Update {
	ups := make([]stream.Update, 0, g.NumVertices()+g.NumEdges())
	g.ForEachVertex(func(v graph.VertexID) {
		ups = append(ups, stream.DeclareVertex(v, g.Labels(v)...))
	})
	g.ForEachEdge(func(e graph.Edge) {
		ups = append(ups, stream.Insert(e.From, e.Label, e.To))
	})
	return ups
}
