package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// Binary snapshot format: a compact varint encoding for persisting large
// generated graphs (the text stream format in internal/stream is the
// interchange format; this one is ~5x smaller and faster to load).
//
// Layout (all unsigned varints unless noted):
//
//	magic "TFG1" (4 bytes)
//	vertexCount
//	  per vertex: id, labelCount, labels...
//	edgeCount
//	  per edge: from, label, to
const binaryMagic = "TFG1"

// WriteBinary writes a snapshot of g.
func (g *Graph) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	put := func(x uint64) error {
		n := binary.PutUvarint(buf[:], x)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := put(uint64(g.NumVertices())); err != nil {
		return err
	}
	var werr error
	g.ForEachVertex(func(v VertexID) {
		if werr != nil {
			return
		}
		ls := g.Labels(v)
		if werr = put(uint64(v)); werr != nil {
			return
		}
		if werr = put(uint64(len(ls))); werr != nil {
			return
		}
		for _, l := range ls {
			if werr = put(uint64(l)); werr != nil {
				return
			}
		}
	})
	if werr != nil {
		return werr
	}
	if err := put(uint64(g.NumEdges())); err != nil {
		return err
	}
	// Emit edges in sorted order: the edge set lives in a map, and loading
	// a snapshot rebuilds adjacency lists in file order, so an unsorted
	// dump would make recovered match-emission order vary run to run.
	es := g.Edges()
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		if es[i].Label != es[j].Label {
			return es[i].Label < es[j].Label
		}
		return es[i].To < es[j].To
	})
	for _, e := range es {
		if err := put(uint64(e.From)); err != nil {
			return err
		}
		if err := put(uint64(e.Label)); err != nil {
			return err
		}
		if err := put(uint64(e.To)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary loads a snapshot written by WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	get := func() (uint64, error) { return binary.ReadUvarint(br) }
	g := New()
	nv, err := get()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nv; i++ {
		id, err := get()
		if err != nil {
			return nil, err
		}
		if id > uint64(MaxVertexID) {
			return nil, fmt.Errorf("graph: vertex id %d exceeds the maximum %d", id, MaxVertexID)
		}
		nl, err := get()
		if err != nil {
			return nil, err
		}
		if nl > 1<<16 {
			return nil, fmt.Errorf("graph: label count %d implausible", nl)
		}
		labels := make([]Label, 0, nl)
		for j := uint64(0); j < nl; j++ {
			l, err := get()
			if err != nil {
				return nil, err
			}
			if l > uint64(^uint16(0)) {
				return nil, fmt.Errorf("graph: label %d overflows", l)
			}
			labels = append(labels, Label(l))
		}
		if err := g.AddVertex(VertexID(id), labels...); err != nil {
			return nil, err
		}
	}
	ne, err := get()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < ne; i++ {
		from, err := get()
		if err != nil {
			return nil, err
		}
		l, err := get()
		if err != nil {
			return nil, err
		}
		to, err := get()
		if err != nil {
			return nil, err
		}
		if from > uint64(MaxVertexID) || to > uint64(MaxVertexID) || l > uint64(^uint16(0)) {
			return nil, fmt.Errorf("graph: edge record %d overflows (vertex ids stop at %d)", i, MaxVertexID)
		}
		g.InsertEdge(VertexID(from), Label(l), VertexID(to))
	}
	return g, nil
}
