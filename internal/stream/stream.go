// Package stream defines graph update streams (Definition 2 of the paper)
// and a line-oriented text codec for persisting and replaying them.
//
// Format, one record per line:
//
//	v <id> [<label>[,<label>...]]   declare a labeled vertex (used for g0)
//	i <from> <label> <to>           insert edge
//	d <from> <label> <to>           delete edge
//	# ...                           comment
package stream

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"turboflux/internal/graph"
)

// Op is the type of an update operation.
type Op uint8

const (
	// OpInsert inserts an edge.
	OpInsert Op = iota
	// OpDelete deletes an edge.
	OpDelete
	// OpVertex declares a vertex with labels (initial-graph loading only).
	OpVertex
)

// String returns the single-letter code used by the text format.
func (op Op) String() string {
	switch op {
	case OpInsert:
		return "i"
	case OpDelete:
		return "d"
	case OpVertex:
		return "v"
	default:
		return "?"
	}
}

// Update is one operation Δo of a graph update stream.
type Update struct {
	Op     Op
	Edge   graph.Edge     // for OpInsert / OpDelete
	Vertex graph.VertexID // for OpVertex
	Labels []graph.Label  // for OpVertex
}

// String renders the update as its text-format record (without trailing
// newline), e.g. "i 1 5 2" or "v 3 1,7" — the one rendering shared by
// logs and errors across the stream, durable and cmd layers.
func (u Update) String() string {
	switch u.Op {
	case OpInsert, OpDelete:
		return fmt.Sprintf("%s %d %d %d", u.Op, u.Edge.From, u.Edge.Label, u.Edge.To)
	case OpVertex:
		if len(u.Labels) == 0 {
			return fmt.Sprintf("v %d", u.Vertex)
		}
		parts := make([]string, len(u.Labels))
		for i, l := range u.Labels {
			parts[i] = strconv.Itoa(int(l))
		}
		return fmt.Sprintf("v %d %s", u.Vertex, strings.Join(parts, ","))
	default:
		return fmt.Sprintf("? op=%d", u.Op)
	}
}

// Insert returns an edge-insertion update.
func Insert(from graph.VertexID, l graph.Label, to graph.VertexID) Update {
	return Update{Op: OpInsert, Edge: graph.Edge{From: from, Label: l, To: to}}
}

// Delete returns an edge-deletion update.
func Delete(from graph.VertexID, l graph.Label, to graph.VertexID) Update {
	return Update{Op: OpDelete, Edge: graph.Edge{From: from, Label: l, To: to}}
}

// DeclareVertex returns a vertex-declaration update.
func DeclareVertex(v graph.VertexID, labels ...graph.Label) Update {
	return Update{Op: OpVertex, Vertex: v, Labels: labels}
}

// CheckIDs returns an error when u names a vertex ID past
// graph.MaxVertexID. The codecs carry any uint32; this is checked where
// updates enter the system, before they are journaled or applied, since
// the graph's vertex table is dense.
func CheckIDs(u Update) error {
	v := u.Vertex
	if u.Op != OpVertex {
		v = max(u.Edge.From, u.Edge.To)
	}
	if err := graph.CheckVertexID(v); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}

// CheckAll is CheckIDs over ups; the error names the first refused
// update's position.
func CheckAll(ups []Update) error {
	for i, u := range ups {
		if err := CheckIDs(u); err != nil {
			return fmt.Errorf("update %d: %w", i, err)
		}
	}
	return nil
}

// Apply applies u to g. It reports whether the graph changed (duplicate
// inserts and deletes of absent edges report false; vertex declarations
// report true when the vertex was new).
func (u Update) Apply(g *graph.Graph) bool {
	switch u.Op {
	case OpInsert:
		return g.InsertEdge(u.Edge.From, u.Edge.Label, u.Edge.To)
	case OpDelete:
		return g.DeleteEdge(u.Edge.From, u.Edge.Label, u.Edge.To)
	case OpVertex:
		if g.HasVertex(u.Vertex) {
			return false
		}
		g.EnsureVertex(u.Vertex, u.Labels...)
		return true
	default:
		return false
	}
}

// Encode writes updates in the text format.
func Encode(w io.Writer, ups []Update) error {
	bw := bufio.NewWriter(w)
	for _, u := range ups {
		var err error
		switch u.Op {
		case OpVertex:
			if len(u.Labels) == 0 {
				_, err = fmt.Fprintf(bw, "v %d\n", u.Vertex)
			} else {
				parts := make([]string, len(u.Labels))
				for i, l := range u.Labels {
					parts[i] = strconv.Itoa(int(l))
				}
				_, err = fmt.Fprintf(bw, "v %d %s\n", u.Vertex, strings.Join(parts, ","))
			}
		case OpInsert, OpDelete:
			_, err = fmt.Fprintf(bw, "%s %d %d %d\n", u.Op, u.Edge.From, u.Edge.Label, u.Edge.To)
		default:
			err = fmt.Errorf("stream: unknown op %d", u.Op)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ApplyAll applies every update to g and returns how many changed the
// graph. Used to materialize g0 from a vertex+edge prelude.
func ApplyAll(g *graph.Graph, ups []Update) int {
	n := 0
	for _, u := range ups {
		if u.Apply(g) {
			n++
		}
	}
	return n
}

// Batches splits ups into consecutive batches of at most size updates.
// Graphflow is driven in 100 K batches in the paper's measurement setup.
func Batches(ups []Update, size int) [][]Update {
	if size <= 0 {
		return [][]Update{ups}
	}
	var out [][]Update
	for len(ups) > size {
		out = append(out, ups[:size])
		ups = ups[size:]
	}
	if len(ups) > 0 {
		out = append(out, ups)
	}
	return out
}
