package eigen

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"igpart/internal/netgen"
	"igpart/internal/netmodel"
	"igpart/internal/obs"
	"igpart/internal/sparse"
)

// gridLaplacian builds the Laplacian of the a×b grid graph P_a □ P_b.
// Its spectrum is every sum of one path eigenvalue 2(1−cos(πi/a)) and
// one 2(1−cos(πj/b)), so for a > b, λ₂ = 2(1−cos(π/a)).
func gridLaplacian(a, b int) *sparse.SymCSR {
	bld := sparse.NewCSRBuilder(a * b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			v := i*b + j
			if i+1 < a {
				bld.Add(v, v+b, 1)
			}
			if j+1 < b {
				bld.Add(v, v+1, 1)
			}
		}
	}
	return sparse.Laplacian(bld.Build())
}

// cycleSpans returns every lanczos-cycle span of a finished trace.
func cycleSpans(root obs.Stage) []obs.Stage {
	var out []obs.Stage
	var walk func(s obs.Stage)
	walk = func(s obs.Stage) {
		if s.Name == "lanczos-cycle" {
			out = append(out, s)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
	return out
}

// stopReason returns the single stop reason a lanczos-cycle span
// counted, failing the test unless exactly one was counted once.
func stopReason(t *testing.T, s obs.Stage) string {
	t.Helper()
	reason := ""
	for _, r := range []string{stopConverged, stopInvariant, stopBudget} {
		switch s.Counters[r] {
		case 0:
		case 1:
			if reason != "" {
				t.Fatalf("cycle span counts two stop reasons, %s and %s: %v", reason, r, s.Counters)
			}
			reason = r
		default:
			t.Fatalf("cycle span counts %s = %d, want at most 1", r, s.Counters[r])
		}
	}
	if reason == "" {
		t.Fatalf("cycle span counts no stop reason: %v", s.Counters)
	}
	return reason
}

// TestFiedlerEarlyStopClosedForm: on path and grid Laplacians with a
// closed-form λ₂, the pair returned by an early-stopped solve meets Tol
// against an independent residual and matches the closed form. The
// path's tiny spectral gap makes its first cycles run into MaxSteps, so
// it also covers a restart that ends on the convergence test.
func TestFiedlerEarlyStopClosedForm(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    *sparse.SymCSR
		want float64
	}{
		{"path400", pathLaplacian(400), 2 * (1 - math.Cos(math.Pi/400))},
		{"grid24x10", gridLaplacian(24, 10), 2 * (1 - math.Cos(math.Pi/24))},
		{"grid60x25", gridLaplacian(60, 25), 2 * (1 - math.Cos(math.Pi/60))},
	} {
		for _, mode := range []ReorthMode{ReorthFull, ReorthSelective} {
			tr := obs.NewTrace("t")
			opts := Options{Seed: 5, ReorthMode: mode, Rec: tr}
			res, err := Fiedler(tc.q, opts)
			if err != nil {
				t.Fatalf("%s/%v: Fiedler: %v", tc.name, mode, err)
			}
			if res.Rung != RungLanczos {
				t.Fatalf("%s/%v: rung %q, want %q", tc.name, mode, res.Rung, RungLanczos)
			}
			theta := GershgorinUpper(tc.q) - res.Lambda2
			tol := opts.withDefaults(tc.q.N()).Tol * math.Max(theta, 1)
			if r := Residual(tc.q, res.Lambda2, res.Vector); r > tol {
				t.Errorf("%s/%v: residual %.3g exceeds Tol·max(|θ|,1) = %.3g", tc.name, mode, r, tol)
			}
			if d := math.Abs(res.Lambda2 - tc.want); d > 1e-9*(1+tc.want) {
				t.Errorf("%s/%v: λ₂ = %.15g, closed form %.15g (off by %.3g)", tc.name, mode, res.Lambda2, tc.want, d)
			}
			converged := false
			for _, s := range cycleSpans(tr.Finish()) {
				converged = converged || stopReason(t, s) == stopConverged
			}
			if !converged {
				t.Errorf("%s/%v: no cycle stopped on the convergence test", tc.name, mode)
			}
		}
	}
}

var (
	igOnce sync.Once
	igQ    *sparse.SymCSR
	igErr  error
)

// scale10kIG is the intersection-graph Laplacian of the 10,000-net
// scale10k preset, built once per test binary.
func scale10kIG(t *testing.T) *sparse.SymCSR {
	t.Helper()
	igOnce.Do(func() {
		cfg, ok := netgen.ByName("scale10k")
		if !ok {
			igErr = errors.New("preset missing")
			return
		}
		h, err := netgen.Generate(cfg)
		if err != nil {
			igErr = err
			return
		}
		igQ = netmodel.IGLaplacian(h, netmodel.IGOptions{})
	})
	if igErr != nil {
		t.Fatalf("scale10k IG Laplacian: %v", igErr)
	}
	return igQ
}

// tracedFiedler solves q with opts under a fresh trace and returns the
// result, the lanczos-cycle spans and the metrics snapshot.
func tracedFiedler(q *sparse.SymCSR, opts Options) (FiedlerResult, []obs.Stage, obs.MetricsSnapshot, error) {
	tr := obs.NewTrace("t")
	opts.Rec = tr
	res, err := Fiedler(q, opts)
	return res, cycleSpans(tr.Finish()), tr.Metrics().Snapshot(), err
}

// TestLanczosEarlyStopOnIGLaplacian: on a 10,000-net IG Laplacian both
// reorthogonalization modes end their cycle on the convergence test well
// before MaxSteps, agree on λ₂ within the selective-vs-full property
// bound, and the stop reasons reach the metrics registry.
func TestLanczosEarlyStopOnIGLaplacian(t *testing.T) {
	q := scale10kIG(t)
	maxSteps := Options{}.withDefaults(q.N()).MaxSteps
	var lambda [2]float64
	for i, mode := range []ReorthMode{ReorthFull, ReorthSelective} {
		res, spans, snap, err := tracedFiedler(q, Options{Seed: 1, ReorthMode: mode})
		if err != nil {
			t.Fatalf("%v: Fiedler: %v", mode, err)
		}
		if len(spans) == 0 {
			t.Fatalf("%v: no lanczos-cycle spans", mode)
		}
		for _, s := range spans {
			if steps := s.Counters["steps"]; steps >= int64(maxSteps) {
				t.Errorf("%v: cycle ran %d steps, want fewer than MaxSteps = %d", mode, steps, maxSteps)
			}
			if r := stopReason(t, s); r != stopConverged {
				t.Errorf("%v: cycle stopped on %q, want %q", mode, r, stopConverged)
			}
		}
		if got := snap.Counters["eigen.cycle_converged"]; got != int64(len(spans)) {
			t.Errorf("%v: eigen.cycle_converged = %d, want %d (one per cycle)", mode, got, len(spans))
		}
		if got := snap.Counters["eigen.cycle_budget"]; got != 0 {
			t.Errorf("%v: eigen.cycle_budget = %d, want 0", mode, got)
		}
		lambda[i] = res.Lambda2
	}
	if d := math.Abs(lambda[0] - lambda[1]); d > 1e-8*(1+math.Abs(lambda[0])) {
		t.Fatalf("λ₂ full %.15g vs selective %.15g differ by %.3g", lambda[0], lambda[1], d)
	}
}

// TestLanczosEarlyStopParallelInvariant: the stop depends only on α and
// β, so λ₂, the vector and the step count are bit-identical for every
// matvec worker count.
func TestLanczosEarlyStopParallelInvariant(t *testing.T) {
	q := scale10kIG(t)
	var (
		base      FiedlerResult
		baseSteps int64
	)
	for _, p := range []int{1, 2, 4, 8} {
		res, spans, _, err := tracedFiedler(q, Options{Seed: 2, MatvecWorkers: p})
		if err != nil {
			t.Fatalf("P=%d: Fiedler: %v", p, err)
		}
		steps := int64(0)
		for _, s := range spans {
			steps += s.Counters["steps"]
		}
		if p == 1 {
			base, baseSteps = res, steps
			continue
		}
		if res.Lambda2 != base.Lambda2 {
			t.Fatalf("P=%d: λ₂ %x differs from serial %x", p, res.Lambda2, base.Lambda2)
		}
		if steps != baseSteps {
			t.Fatalf("P=%d: %d Krylov steps, serial took %d", p, steps, baseSteps)
		}
		for i := range base.Vector {
			if res.Vector[i] != base.Vector[i] {
				t.Fatalf("P=%d: vector entry %d is %x, serial %x", p, i, res.Vector[i], base.Vector[i])
			}
		}
	}
}

// TestLanczosStopReasons drives the two other ways a cycle ends: a
// Krylov space that turns invariant (the complete graph's shifted
// Laplacian is a multiple of the identity once the constant vector is
// deflated) and a MaxSteps cap too small to converge.
func TestLanczosStopReasons(t *testing.T) {
	const n = 60 // above denseCutoff, so the iterative path runs
	b := sparse.NewCSRBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.Add(i, j, 1)
		}
	}
	_, spans, snap, err := tracedFiedler(sparse.Laplacian(b.Build()), Options{})
	if err != nil {
		t.Fatalf("complete graph: Fiedler: %v", err)
	}
	if len(spans) != 1 || stopReason(t, spans[0]) != stopInvariant {
		t.Fatalf("complete graph: %d cycles, want one ending on %q", len(spans), stopInvariant)
	}
	if snap.Counters["eigen.cycle_invariant"] != 1 {
		t.Fatalf("eigen.cycle_invariant = %d, want 1", snap.Counters["eigen.cycle_invariant"])
	}

	// Whether the capped solve ends in an error does not matter here.
	_, spans, snap, _ = tracedFiedler(plantedLaplacian(300, 4), Options{MaxSteps: 4, MaxRestarts: 2, DenseFallbackCutoff: -1})
	budget := int64(0)
	for _, s := range spans {
		if stopReason(t, s) == stopBudget {
			budget++
		}
	}
	if budget == 0 || snap.Counters["eigen.cycle_budget"] != budget {
		t.Fatalf("capped solve: %d cycles hit the budget, eigen.cycle_budget = %d", budget, snap.Counters["eigen.cycle_budget"])
	}
}

// TestSymTridiagonalLastRowMatchesFull: the last-row QL variant returns
// exactly SymTridiagonal's eigenvalues and the last row of its full
// eigenvector matrix, bit for bit.
func TestSymTridiagonalLastRowMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(80)
		d, e := randomTridiag(rng, n)
		wantVals, z, err := SymTridiagonal(d, e, true)
		if err != nil {
			t.Fatalf("trial %d: SymTridiagonal: %v", trial, err)
		}
		vals, last, err := symTridiagonalLastRow(d, e)
		if err != nil {
			t.Fatalf("trial %d: symTridiagonalLastRow: %v", trial, err)
		}
		for k := 0; k < n; k++ {
			if vals[k] != wantVals[k] {
				t.Fatalf("trial %d (n=%d): eigenvalue %d is %v, full solve %v", trial, n, k, vals[k], wantVals[k])
			}
			if last[k] != z[n-1][k] {
				t.Fatalf("trial %d (n=%d): last-row entry %d is %v, full Z %v", trial, n, k, last[k], z[n-1][k])
			}
		}
	}
	if _, _, err := symTridiagonalLastRow([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Fatal("symTridiagonalLastRow accepted a wrong subdiagonal length")
	}
}
