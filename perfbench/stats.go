package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule: the smallest sample with at least ⌈q·n⌉ samples at or below it.
// It refuses a quantile the samples cannot support — fewer than minBeyond
// samples strictly above the chosen rank — so a reported p90 always
// rests on at least ten samples beyond it. xs is not modified.
func quantile(xs []float64, q float64, minBeyond int) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("quantile %.2f of no samples", q)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("quantile %.2f of %d samples leaves %d beyond it, need %d", q, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean; NaN when there are no values.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// gmean is the geometric mean of strictly positive values; NaN when a
// value is not positive or there are none.
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// tally counts operations attempted and failed. An operation fails when
// it errors, is refused, times out, or its output fails a check; each
// failure is kept with its reason for the diagnostic log.
type tally struct {
	attempted int
	reasons   []string
}

// ok records one attempted operation that succeeded.
func (t *tally) ok() { t.attempted++ }

// fail records one attempted operation that failed.
func (t *tally) fail(op string, err error) {
	t.attempted++
	t.reasons = append(t.reasons, fmt.Sprintf("%s: %v", op, err))
}

// check records one attempted operation that failed iff err != nil.
func (t *tally) check(op string, err error) {
	if err != nil {
		t.fail(op, err)
		return
	}
	t.ok()
}

// failed is the number of failed operations.
func (t *tally) failed() int { return len(t.reasons) }

// failedFrac is failed ÷ attempted (0 when nothing was attempted).
func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted)
}

// merge folds another tally into t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.reasons = append(t.reasons, o.reasons...)
}
