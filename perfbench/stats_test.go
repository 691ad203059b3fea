package main

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"igpart/internal/hypergraph"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so quantile must sort
	}
	return xs
}

func TestQuantileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n, minBeyond int
		q, want      float64
	}{
		{n: 1, q: 0.5, want: 1},
		{n: 2, q: 0.5, want: 1},
		{n: 3, q: 0.5, want: 2},
		{n: 10, q: 0.5, want: 5},
		{n: 100, q: 0.9, minBeyond: 10, want: 90},
		{n: 101, q: 0.9, minBeyond: 10, want: 91},
		{n: 1000, q: 0.9, minBeyond: 10, want: 900},
	} {
		got, err := quantile(seq(tc.n), tc.q, tc.minBeyond)
		if err != nil || got != tc.want {
			t.Errorf("quantile(1..%d, %.2f) = %v, %v; want %v", tc.n, tc.q, got, err, tc.want)
		}
	}
}

func TestQuantileRefusesThinTail(t *testing.T) {
	// A p90 needs ten samples beyond it: 99 samples leave only nine.
	if _, err := quantile(seq(99), 0.9, 10); err == nil {
		t.Error("p90 of 99 samples accepted")
	}
	if _, err := quantile(nil, 0.5, 0); err == nil {
		t.Error("quantile of no samples accepted")
	}
}

func TestQuantileLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := quantile(xs, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input reordered: %v", xs)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestMean(t *testing.T) {
	if got := mean([]float64{298, 299, 390, 301}); got != 322 {
		t.Errorf("mean = %v", got)
	}
	if !math.IsNaN(mean(nil)) {
		t.Error("mean of nothing is not NaN")
	}
}

func TestGmean(t *testing.T) {
	if got := gmean([]float64{1, 100}); math.Abs(got-10) > 1e-12 {
		t.Errorf("gmean(1, 100) = %v", got)
	}
	if got := gmean([]float64{2e-5, 2e-5, 2e-5}); math.Abs(got-2e-5) > 1e-18 {
		t.Errorf("gmean of equal values = %v", got)
	}
	for _, xs := range [][]float64{nil, {1, 0}, {1, -2}, {math.NaN()}} {
		if !math.IsNaN(gmean(xs)) {
			t.Errorf("gmean(%v) is not NaN", xs)
		}
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var a tally
	a.ok()
	a.check("solve", nil)
	a.check("solve", errors.New("cut exceeds bound"))
	a.fail("hit", errors.New("timeout"))
	if a.attempted != 4 || a.failed() != 2 || a.failedFrac() != 0.5 {
		t.Fatalf("attempted=%d failed=%d frac=%v, want 4 2 0.5", a.attempted, a.failed(), a.failedFrac())
	}
	var b tally
	if b.failedFrac() != 0 {
		t.Error("empty tally has a failure fraction")
	}
	b.ok()
	b.fail("eco", errors.New("HTTP 409"))
	a.merge(&b)
	if a.attempted != 6 || a.failed() != 3 {
		t.Errorf("after merge attempted=%d failed=%d, want 6 3", a.attempted, a.failed())
	}
	if a.reasons[2] != "eco: HTTP 409" {
		t.Errorf("reason = %q", a.reasons[2])
	}
}

func TestServeChecksCatchWrongResults(t *testing.T) {
	b := hypergraph.NewBuilder().SetNumModules(4)
	b.AddNet(0, 1)
	b.AddNet(1, 2)
	b.AddNet(2, 3)
	h := b.Build()
	job := func(cut int, ratio float64) jobView {
		raw, _ := json.Marshal(resultView{CutNets: cut, SizeU: 2, SizeW: 2, RatioCut: ratio, Sides: []int{0, 0, 1, 1}})
		return jobView{State: "done", Result: raw}
	}
	good, err := checkServed(job(1, 0.25), h)
	if err != nil {
		t.Fatalf("correct result rejected: %v", err)
	}
	if _, err := checkServed(job(1, 0.2), h); err == nil {
		t.Error("wrong ratio cut accepted")
	}
	if _, err := checkServed(job(0, 0.25), h); err == nil {
		t.Error("wrong cut accepted")
	}
	other := good
	other.Sides = []int{0, 1, 1, 1}
	if err := sameResult(other, good); err == nil {
		t.Error("hit with different sides accepted")
	}
	if err := sameResult(good, good); err != nil {
		t.Errorf("identical hit rejected: %v", err)
	}
}
