package turboflux

import (
	"fmt"
	"math/rand"
	"testing"
)

// churnStream builds a delete-heavy update stream in waves: each wave
// inserts a batch of edges (hub-focused so adjacency buckets grow past
// the compaction thresholds), then deletes every one of them in a
// shuffled order (draining buckets through the shrink and drop paths and
// releasing every DCG slot), then re-inserts a subset over the same
// vertex IDs so re-created candidates land on recycled slots. Deletes of
// never-inserted edges are mixed in as no-ops.
func churnStream(rng *rand.Rand, waves int) []Update {
	const nVerts = 24
	var ups []Update
	for v := VertexID(1); v <= nVerts; v++ {
		ups = append(ups, DeclareVertex(v, Label(v%2)))
	}
	type edge struct {
		from, to VertexID
		l        Label
	}
	hub := VertexID(1)
	for w := 0; w < waves; w++ {
		var wave []edge
		add := func(e edge) {
			wave = append(wave, e)
			ups = append(ups, Insert(e.from, e.l, e.to))
		}
		// Hub fan-out: one adjacency bucket grows well past inShrinkMin.
		for i := 0; i < 20; i++ {
			add(edge{from: hub, to: VertexID(2 + rng.Intn(nVerts-2)), l: Label(rng.Intn(3))})
		}
		// Background edges between random vertices.
		for i := 0; i < 15; i++ {
			add(edge{
				from: VertexID(1 + rng.Intn(nVerts)),
				to:   VertexID(1 + rng.Intn(nVerts)),
				l:    Label(rng.Intn(3)),
			})
		}
		// Drain the whole wave in shuffled order, with no-op deletes of
		// edges that were never inserted sprinkled in.
		for _, i := range rng.Perm(len(wave)) {
			e := wave[i]
			ups = append(ups, Delete(e.from, e.l, e.to))
			if rng.Intn(4) == 0 {
				ups = append(ups, Delete(VertexID(1+rng.Intn(nVerts)), Label(3), VertexID(1+rng.Intn(nVerts))))
			}
		}
		// Re-create over the same vertex IDs: the engines' DCG slots for
		// these vertices were just released and must be reused.
		for i := 0; i < 10; i++ {
			e := wave[rng.Intn(len(wave))]
			ups = append(ups, Insert(e.from, e.l, e.to))
		}
	}
	return ups
}

// TestDeleteHeavyChurnEquivalence is the transcript gate of the dense
// layout overhaul (DESIGN.md §16): under delete-heavy churn that
// exercises slot release, epoch recycling, adjacency-bucket compaction
// and vertex re-creation on recycled slots, every worker count and batch
// size must reproduce the independent per-query reference byte for byte.
func TestDeleteHeavyChurnEquivalence(t *testing.T) {
	waves := 6
	if testing.Short() {
		waves = 2
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			specs := randomQuerySpecs(rng)
			ups := churnStream(rng, waves)
			checkEquivalence(t, specs, ups, nil, []int{1, 4, 8}, []int{1, 256}, nil)
		})
	}
}
