package igpart

import (
	"fmt"
	"testing"

	"igpart/internal/core"
)

// TestGoldenDeterminism pins the integer outcomes (cut, sizes, bound) of
// every deterministic algorithm on a fixed seeded circuit. It protects the
// reproduction against silent behavioral drift: any change to the
// generator, eigensolver ordering, sweep, or completions that alters
// results must consciously update these numbers.
//
// Only integer metrics are pinned; floating-point ratio values follow from
// them exactly.
func TestGoldenDeterminism(t *testing.T) {
	cfg, _ := Benchmark("Prim1")
	h, err := Generate(cfg.Scaled(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumModules() != 249 || h.NumNets() != 270 || h.NumPins() != 1055 {
		t.Fatalf("generator drift: %d modules %d nets %d pins",
			h.NumModules(), h.NumNets(), h.NumPins())
	}

	type golden struct {
		cut, sizeU, sizeW int
	}
	check := func(name string, got Metrics, want golden) {
		t.Helper()
		if got.CutNets != want.cut || got.SizeU != want.sizeU || got.SizeW != want.sizeW {
			t.Errorf("%s drift: got cut=%d %d:%d, golden cut=%d %d:%d",
				name, got.CutNets, got.SizeU, got.SizeW, want.cut, want.sizeU, want.sizeW)
		}
	}

	ig, err := IGMatch(h)
	if err != nil {
		t.Fatal(err)
	}
	check("IGMatch", ig.Metrics, golden{cut: 11, sizeU: 124, sizeW: 125})

	// Pin the winning split itself, not just the final metrics: a
	// parallel-reduction tie-break bug could return an equal-metric
	// partition from a different rank, which a metrics-only golden would
	// miss. The record is fetched from the sweep trace at BestRank.
	if ig.BestRank != 113 || ig.MatchingBound != 19 {
		t.Errorf("IGMatch winning split drift: rank=%d bound=%d, golden rank=113 bound=19",
			ig.BestRank, ig.MatchingBound)
	}
	var trace []core.SplitRecord
	cres, err := core.Partition(h, core.Options{Trace: &trace})
	if err != nil {
		t.Fatal(err)
	}
	if cres.BestRank < 1 || cres.BestRank > len(trace) {
		t.Fatalf("best rank %d outside trace of %d records", cres.BestRank, len(trace))
	}
	win := trace[cres.BestRank-1]
	if win.Rank != 113 || win.MatchingSize != 19 || win.CutNets != 11 {
		t.Errorf("winning split record drift: %+v, golden Rank=113 MatchingSize=19 CutNets=11", win)
	}

	// The parallel sharded sweep must reproduce the same golden numbers
	// bit-for-bit (deterministic lowest-rank reduction).
	for _, p := range []int{2, 4} {
		igp, err := IGMatch(h, IGMatchOptions{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("IGMatch(P=%d)", p), igp.Metrics, golden{cut: 11, sizeU: 124, sizeW: 125})
		if igp.BestRank != ig.BestRank || igp.MatchingBound != ig.MatchingBound {
			t.Errorf("IGMatch(P=%d) split drift: rank=%d bound=%d, serial rank=%d bound=%d",
				p, igp.BestRank, igp.MatchingBound, ig.BestRank, ig.MatchingBound)
		}
	}

	iv, err := IGVote(h)
	if err != nil {
		t.Fatal(err)
	}
	check("IGVote", iv.Metrics, golden{cut: 11, sizeU: 117, sizeW: 132})

	e1, err := EIG1(h)
	if err != nil {
		t.Fatal(err)
	}
	check("EIG1", e1.Metrics, golden{cut: 11, sizeU: 124, sizeW: 125})

	rc, err := RCut(h, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	check("RCut", rc.Metrics, golden{cut: 13, sizeU: 182, sizeW: 67})

	dm, err := IGDiam(h)
	if err != nil {
		t.Fatal(err)
	}
	check("IGDiam", dm.Metrics, golden{cut: 6, sizeU: 24, sizeW: 225})
}
