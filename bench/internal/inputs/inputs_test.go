package inputs

import (
	"reflect"
	"testing"

	"turboflux/internal/graph"
	"turboflux/internal/query"
)

func equalQueries(a, b *query.Graph) bool {
	if a.NumVertices() != b.NumVertices() || !reflect.DeepEqual(a.Edges(), b.Edges()) {
		return false
	}
	for u := 0; u < a.NumVertices(); u++ {
		if !reflect.DeepEqual(a.Labels(graph.VertexID(u)), b.Labels(graph.VertexID(u))) {
			return false
		}
	}
	return true
}

var smallSpec = Spec{Users: 400, StreamFraction: 0.5, DeletionRate: 0.2}

// Equal seeds give equal inputs, different seeds different graphs and
// streams under the same frozen queries, each query its own object.
func TestBuildFollowsTheSeed(t *testing.T) {
	patterns := []string{"(v0:0),(v1:1),(v0)-[:2]->(v1)", "(v0:0),(v1:1),(v0)-[:2]->(v1)", "(v0:0),(v1:0),(v0)-[:1]->(v1)"}
	a, err := Build(smallSpec, patterns, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(smallSpec, patterns, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(smallSpec, patterns, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Dataset.Stream, b.Dataset.Stream) || !reflect.DeepEqual(a.Dataset.Graph.Edges(), b.Dataset.Graph.Edges()) {
		t.Error("equal seeds must give equal graphs and streams")
	}
	if reflect.DeepEqual(a.Dataset.Stream, c.Dataset.Stream) {
		t.Error("different seeds gave the same stream")
	}
	if len(a.Queries) != 3 || a.Queries[0] == a.Queries[1] || !equalQueries(a.Queries[0], a.Queries[1]) {
		t.Error("repeated patterns must parse to equal but distinct queries")
	}
	if a.Names[2] != "q02" {
		t.Errorf("names = %v", a.Names)
	}
	if _, err := Build(smallSpec, []string{"(v0"}, 5); err == nil {
		t.Error("a malformed pattern must fail the build")
	}
}
