package harness

import (
	"testing"
	"time"

	"turboflux/internal/csm"
	"turboflux/internal/query"
	"turboflux/internal/workload"
)

// TestPaperShapes asserts the paper's headline comparative results at
// miniature scale. Margins are deliberately loose (2x) so the test stays
// robust on loaded machines; the benchmarks measure the real gaps.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-shape test")
	}
	ds := workload.LSBench(workload.LSBenchConfig{Users: 600, StreamFraction: 0.1, Seed: 1})
	rc := RunConfig{
		Timeout: 10 * time.Second,
		Engine:  csm.Options{WorkBudget: 20_000_000, SizeCap: 1 << 28},
	}
	qs := ds.TreeQueries(18, 6, 7)
	qs = selectQueries(ds, qs, 6, rc)
	if len(qs) < 3 {
		t.Fatalf("only %d usable queries", len(qs))
	}

	tf := RunSet(TurboFlux, ds, qs, rc)
	sj := RunSet(SJTree, ds, qs, rc)
	gf := RunSet(Graphflow, ds, qs, rc)

	// Shape 1 (Figures 3/6): TurboFlux is faster than SJ-Tree on average.
	if len(tf.Costs) == 0 || len(sj.Costs) == 0 {
		t.Fatalf("unexpected censoring: tf=%d sj=%d", len(tf.Costs), len(sj.Costs))
	}
	if tf.MeanCost() > sj.MeanCost()*2 {
		t.Errorf("TurboFlux (%v) not clearly faster than SJ-Tree (%v)",
			tf.MeanCost(), sj.MeanCost())
	}
	// Shape 2 (Figure 6b): the DCG is much smaller than SJ-Tree's
	// materialized tuples.
	if tf.MeanSize()*5 > sj.MeanSize() {
		t.Errorf("DCG size %d not ≥5x smaller than SJ-Tree size %d",
			tf.MeanSize(), sj.MeanSize())
	}
	// Shape 3: every engine agrees on total matches (insert-only stream).
	if tf.TotalMatches() != sj.TotalMatches() || tf.TotalMatches() != gf.TotalMatches() {
		t.Errorf("match totals disagree: TF=%d SJ=%d GF=%d",
			tf.TotalMatches(), sj.TotalMatches(), gf.TotalMatches())
	}

	// Shape 4 (Figure 9): growing the initial graph hurts Graphflow far
	// more than TurboFlux (stateless recompute vs maintained index).
	small := ds
	big := workload.LSBench(workload.LSBenchConfig{Users: 2400, StreamFraction: 0.1, Seed: 1})
	rcBig := rc
	if len(big.Stream) > len(small.Stream) {
		rcBig.Stream = big.Stream[:len(small.Stream)]
	}
	// Each cost below is a single short run's wall clock, and a ratio of
	// ratios of four of them: one descheduled run among the four (other
	// packages' tests run beside this one) flips the verdict. Take the
	// fastest of three.
	fastest := func(kind Kind, ds *workload.Dataset, q *query.Graph, rc RunConfig) Result {
		best := RunQuery(kind, ds, q, rc)
		for i := 0; i < 2 && !best.TimedOut; i++ {
			if r := RunQuery(kind, ds, q, rc); r.TimedOut || r.Cost < best.Cost {
				best = r
			}
		}
		return best
	}
	q := qs[0]
	tfSmall := fastest(TurboFlux, small, q, rc)
	gfSmall := fastest(Graphflow, small, q, rc)
	// Regenerate a comparable query for the big dataset (same seed recipe).
	bigQs := selectQueries(big, big.TreeQueries(18, 6, 7), 1, rcBig)
	if len(bigQs) == 0 {
		t.Skip("no usable query at 4x scale")
	}
	tfBig := fastest(TurboFlux, big, bigQs[0], rcBig)
	gfBig := fastest(Graphflow, big, bigQs[0], rcBig)
	if tfSmall.TimedOut || gfSmall.TimedOut || tfBig.TimedOut || gfBig.TimedOut {
		t.Skip("censoring at this scale; skip growth-shape check")
	}
	tfGrowth := float64(tfBig.Cost) / float64(tfSmall.Cost+1)
	gfGrowth := float64(gfBig.Cost) / float64(gfSmall.Cost+1)
	if tfGrowth > gfGrowth*4 {
		t.Errorf("TurboFlux growth %.2fx should not dwarf Graphflow growth %.2fx",
			tfGrowth, gfGrowth)
	}

	// Shape 5 (Figure 12): IncIsoMat is at least an order of magnitude
	// slower per update on a short stream.
	short := rc
	short.Stream = prefixInserts(ds.Stream, 150)
	tfShort := RunQuery(TurboFlux, ds, q, short)
	imShort := RunQuery(IncIsoMat, ds, q, short)
	if !imShort.TimedOut && imShort.Cost < tfShort.Cost*5 {
		t.Errorf("IncIsoMat (%v) not ≥5x slower than TurboFlux (%v)",
			imShort.Cost, tfShort.Cost)
	}
}
