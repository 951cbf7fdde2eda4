package graph

import (
	"math/rand"
	"testing"
)

// TestWindowTableVisibility is the born/died/at truth table of the
// versioned read: an insertion is hidden from the updates before it, a
// deletion from the updates after it, and the update itself sees its edge
// either way (an insert evaluates after mutation, a delete before removal).
func TestWindowTableVisibility(t *testing.T) {
	var w Window
	ins, del, other := Edge{1, 0, 2}, Edge{2, 0, 3}, Edge{3, 0, 4}
	if w.Has(ins) || w.Hidden(ins, 0) || w.Len() != 0 {
		t.Fatal("the zero Window is not empty")
	}
	w.Add(ins, 5, false)
	w.Add(del, 5, true)
	if !w.Has(ins) || !w.Has(del) || w.Has(other) || w.Len() != 2 {
		t.Fatalf("Has/Len wrong after two Adds: len %d", w.Len())
	}
	for _, tc := range []struct {
		e    Edge
		at   int32
		want bool
	}{
		{ins, 4, true}, {ins, 5, false}, {ins, 6, false}, // born at 5
		{del, 4, false}, {del, 5, false}, {del, 6, true}, // died at 5
		{other, 0, false}, {other, 9, false}, // untouched: as stored
		{ins.Reverse(), 0, false}, // direction is part of the edge
		{Edge{1, 1, 2}, 0, false}, // and so is the label
	} {
		if got := w.Hidden(tc.e, tc.at); got != tc.want {
			t.Errorf("Hidden(%v, at=%d) = %v, want %v", tc.e, tc.at, got, tc.want)
		}
	}
	w.Reset()
	if w.Has(ins) || w.Hidden(ins, 0) || w.Hidden(del, 9) || w.Len() != 0 {
		t.Fatal("Reset left the window's edges behind")
	}
	if w.MayHide(1, 0) || w.MayHide(3, 0) {
		t.Fatal("Reset left the filter set")
	}
}

// TestWindowTableEpochWrap drives the epoch counter through zero: the
// entries of the window before the wrap must not read as current after it
// (epoch 0 marks empty entries).
func TestWindowTableEpochWrap(t *testing.T) {
	var w Window
	e := Edge{1, 0, 2}
	w.Add(e, 0, false)
	w.Reset()
	w.epoch = ^uint32(0)
	w.Add(e, 3, true)
	if !w.Hidden(e, 4) {
		t.Fatal("entry of the last epoch before the wrap not found")
	}
	w.Reset() // wraps
	if w.epoch == 0 {
		t.Fatal("epoch 0 would make every empty entry current")
	}
	if w.Has(e) || w.Hidden(e, 4) {
		t.Fatal("entry survived the epoch wrap")
	}
	w.Add(Edge{5, 1, 6}, 0, false)
	if !w.Has(Edge{5, 1, 6}) || w.Has(e) {
		t.Fatal("table unusable after the wrap")
	}
}

// TestWindowTableGrowthAndFilter fills one window well past the initial
// table size: every edge added before a doubling is still found after it
// with its index and op, stale entries of earlier windows never are, and
// the (endpoint, label) filter has no false negatives — each list an edge
// of the window sits in is flagged.
func TestWindowTableGrowthAndFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var w Window
	for round := 0; round < 3; round++ {
		type rec struct {
			e   Edge
			idx int32
			del bool
		}
		var recs []rec
		seen := map[Edge]bool{}
		for len(recs) < 700 { // 64 → 2048 slots: five doublings mid-window
			e := Edge{VertexID(rng.Intn(5000)), Label(rng.Intn(4)), VertexID(rng.Intn(5000))}
			if seen[e] {
				continue
			}
			seen[e] = true
			r := rec{e, int32(len(recs)), rng.Intn(2) == 0}
			w.Add(r.e, r.idx, r.del)
			recs = append(recs, r)
		}
		if w.Len() != len(recs) {
			t.Fatalf("round %d: Len = %d, want %d", round, w.Len(), len(recs))
		}
		for _, r := range recs {
			if !w.Has(r.e) {
				t.Fatalf("round %d: %v lost in growth", round, r.e)
			}
			if w.Hidden(r.e, r.idx) {
				t.Fatalf("round %d: %v hidden from its own update", round, r.e)
			}
			if w.Hidden(r.e, r.idx-1) == r.del || w.Hidden(r.e, r.idx+1) != r.del {
				t.Fatalf("round %d: %v (del=%v at %d) kept the wrong index or op", round, r.e, r.del, r.idx)
			}
			if !w.MayHide(r.e.From, r.e.Label) || !w.MayHide(r.e.To, r.e.Label) {
				t.Fatalf("round %d: filter misses an endpoint list of %v", round, r.e)
			}
		}
		// One edge of the next window makes the lookups probe the table
		// instead of stopping at its empty count.
		w.Reset()
		w.Add(Edge{9999, 9, 9999}, 0, false)
		for _, r := range recs {
			if w.Has(r.e) || w.Hidden(r.e, r.idx+1) || w.Hidden(r.e, r.idx-1) {
				t.Fatalf("round %d: stale entry %v read as current", round, r.e)
			}
		}
		w.Reset()
	}
}
