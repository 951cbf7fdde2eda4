// Package mqo canonicalizes registered queries down to their spanning-tree
// shape (DESIGN.md §17): the sub-pattern key under which the multi-query
// front end lets every query of one shape share ONE DCG, maintained once
// per update by the shape's first member, with per-query completion joins
// (non-tree checks, semantics, emission attribution) layered on top. The
// package holds the key only; the shapes and their members live in the
// MultiEngine.
package mqo

import (
	"strconv"

	"turboflux/internal/graph"
	"turboflux/internal/query"
)

// KeyOf canonicalizes the shareable part of a registered query — its
// spanning-tree shape — into a sub-pattern key. Two queries share a DCG
// exactly when their keys match, which requires identical vertex
// numbering, root, per-vertex parent edges (parent, label, direction),
// per-vertex label sequences, and child attachment order:
//
//   - vertex numbering and parent edges because DCG slots index in-edges
//     by child query vertex;
//   - label sequences because trigger gates test L(u) containment;
//   - child attachment order because clearing and matching-order
//     computation iterate Children[u] in attachment order.
//
// Non-tree edges, matching semantics, search strategy and OnMatch are
// deliberately excluded: they belong to the per-query completion join,
// not the shared maintenance. A stricter-than-necessary key only costs
// sharing opportunities, never correctness.
func KeyOf(q *query.Graph, tree *query.Tree) string {
	// Worst-case a few bytes per vertex/label; 16 per vertex is a
	// comfortable starting capacity for typical 4–8 vertex queries.
	b := make([]byte, 0, 16*q.NumVertices()+16)
	b = strconv.AppendInt(b, int64(q.NumVertices()), 10)
	b = append(b, ';')
	b = strconv.AppendInt(b, int64(tree.Root), 10)
	for u := 0; u < q.NumVertices(); u++ {
		b = append(b, ';')
		if graph.VertexID(u) != tree.Root {
			te := tree.ParentEdge[u]
			b = strconv.AppendInt(b, int64(te.Parent), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(te.Label), 10)
			if te.Forward {
				b = append(b, 'f')
			} else {
				b = append(b, 'r')
			}
		}
		b = append(b, 'L')
		for _, l := range q.Labels(graph.VertexID(u)) {
			b = strconv.AppendInt(b, int64(l), 10)
			b = append(b, ',')
		}
		b = append(b, 'C')
		for _, c := range tree.Children[u] {
			b = strconv.AppendInt(b, int64(c), 10)
			b = append(b, ',')
		}
	}
	return string(b)
}
