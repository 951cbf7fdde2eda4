package turboflux

import (
	"strings"
	"testing"
)

// TestApplyRefusesVertexIDsPastBound: every Go entry point refuses an
// update naming a vertex ID past graph.MaxVertexID with an error, before
// it is journaled or applied, instead of sizing the dense vertex table by
// the ID.
func TestApplyRefusesVertexIDsPastBound(t *testing.T) {
	const huge = VertexID(4_000_000_000)
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "exceeds the maximum") {
			t.Errorf("%s: err = %v, want the vertex-ID bound's refusal", what, err)
		}
	}
	bad := []Update{Insert(1, 0, 2), Insert(huge, 0, 1)}

	m := NewMultiEngine(NewGraph())
	defer m.Close() //tf:unchecked-ok test cleanup
	_, err := m.Apply(Insert(1, 0, huge))
	refused("MultiEngine.Apply", err)
	_, err = m.Insert(huge, 0, 1)
	refused("MultiEngine.Insert", err)
	_, err = m.Apply(DeclareVertex(NoVertex))
	refused("MultiEngine.Apply of a declaration", err)
	_, err = m.ApplyBatch(bad)
	refused("MultiEngine.ApplyBatch", err)
	if g := m.Graph(); g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Errorf("refused updates changed the graph: %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}

	dir := t.TempDir()
	d, err := OpenDurableMulti(dir, DurableMultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Apply(Insert(huge, 0, 1))
	refused("durable MultiEngine.Apply", err)
	_, err = d.Delete(1, 0, huge)
	refused("durable MultiEngine.Delete", err)
	_, err = d.ApplyBatch(bad)
	refused("durable MultiEngine.ApplyBatch", err)
	if d.LSN() != 0 {
		t.Errorf("refused updates were journaled: LSN %d", d.LSN())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err = OpenDurableMulti(dir, DurableMultiOptions{}); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	d.Close() //tf:unchecked-ok test cleanup
	_, err = OpenDurableMulti(t.TempDir(), DurableMultiOptions{Bootstrap: bad})
	refused("OpenDurableMulti with a bootstrap past the bound", err)
}
