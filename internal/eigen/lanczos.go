package eigen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"igpart/internal/fault"
	"igpart/internal/obs"
	"igpart/internal/sparse"
)

// Operator is a symmetric linear operator on R^n. Both sparse.SymCSR and
// sparse.SymDense satisfy it.
type Operator interface {
	N() int
	MulVec(y, x []float64)
}

// ParOperator is an Operator whose product can shard rows across worker
// goroutines with bit-identical results for every worker count.
// sparse.SymCSR (and the shifted wrapper Fiedler builds) satisfy it.
type ParOperator interface {
	Operator
	ParMulVec(y, x []float64, workers int)
}

// opMulVec dispatches one matvec, through the row-sharded parallel
// kernel when workers enables it and the operator supports it.
// workers follows the ParMulVec convention: 1 forces the serial kernel,
// <= 0 selects GOMAXPROCS.
func opMulVec(op Operator, y, x []float64, workers int) {
	if workers != 1 {
		if po, ok := op.(ParOperator); ok {
			po.ParMulVec(y, x, workers)
			return
		}
	}
	op.MulVec(y, x)
}

// Options tunes the Lanczos iteration. The zero value selects sensible
// defaults for netlist-sized Laplacians.
type Options struct {
	// MaxSteps caps the Krylov dimension per restart cycle; a cycle
	// stops earlier once its Ritz residual estimate meets Tol.
	// Default: min(n, 300).
	MaxSteps int
	// Tol is the relative residual tolerance for Ritz-pair convergence.
	// Default: 1e-8.
	Tol float64
	// MaxRestarts bounds the number of restart cycles. Default: 8.
	MaxRestarts int
	// Seed seeds the random starting vector, making runs reproducible.
	Seed int64
	// BlockSize selects block Lanczos with the given block width when > 1
	// (the solver family of the paper's reference [12]); ≤ 1 selects the
	// simple single-vector iteration.
	BlockSize int
	// ReorthMode selects the reorthogonalization strategy: ReorthAuto
	// (default) runs the ω-monitored selective scheme once the dimension
	// reaches ReorthAutoCutoff and the historical full scheme below it;
	// ReorthFull and ReorthSelective force one or the other.
	ReorthMode ReorthMode
	// MatvecWorkers bounds the worker goroutines of the row-sharded
	// parallel matvec on operators that support it (CSR Laplacians and
	// their shifted wrappers). 0 selects auto — GOMAXPROCS workers once
	// the dimension reaches parMatvecMinRows, serial below it; 1 forces
	// the serial kernel; negative means GOMAXPROCS unconditionally.
	// Results are bit-identical for every value.
	MatvecWorkers int
	// Rec, when non-nil, receives one stage span per restart cycle
	// (Krylov steps, matrix–vector products) plus restart counters.
	// Recording never changes the iteration.
	Rec obs.Recorder
	// Ctx, when non-nil, enables cooperative cancellation: the solver
	// polls it at the start of every restart cycle and every few Krylov
	// steps within a cycle, returning ctx.Err() once it fires. A nil or
	// background context changes nothing — the iteration (and therefore
	// every eigenpair) is bit-identical with or without one.
	Ctx context.Context
	// DenseFallbackCutoff bounds the dimension up to which Fiedler (and
	// SmallestK) may fall back to the exact dense Jacobi solver after
	// the iterative rungs fail. 0 selects the default (512); negative
	// disables the dense fallback rung entirely.
	DenseFallbackCutoff int
	// Fault, when non-nil, arms deterministic fault injection: the
	// fault.EigenNoConverge point fires at solve entry and simulates a
	// non-convergence, exercising the fallback chain. A nil injector is
	// a no-op — production runs are bit-identical with or without the
	// field wired.
	Fault *fault.Injector
}

// defaultDenseFallback is the dimension bound for the dense Jacobi
// fallback rung when Options.DenseFallbackCutoff is 0. Jacobi is O(n³)
// per sweep, so the bound keeps the worst-case rescue solve within
// interactive time while covering every netlist the paper evaluates.
const defaultDenseFallback = 512

// denseFallbackCutoff resolves Options.DenseFallbackCutoff.
func (o Options) denseFallbackCutoff() int {
	if o.DenseFallbackCutoff > 0 {
		return o.DenseFallbackCutoff
	}
	if o.DenseFallbackCutoff < 0 {
		return 0
	}
	return defaultDenseFallback
}

// NoConvergeError reports that an iterative eigensolve failed to reach
// its tolerance (or produced a non-finite result, which is treated the
// same way). It is the trigger of the Fiedler fallback chain: callers
// detect it with errors.As and escalate to the next rung instead of
// failing the whole pipeline.
type NoConvergeError struct {
	// Residual is the best residual norm reached (0 when injected).
	Residual float64
	// Restarts is the restart budget that was exhausted.
	Restarts int
	// NonFinite marks a solve that converged numerically but produced
	// NaN/Inf entries — poisoned output that must not reach the sweep.
	NonFinite bool
	// Injected marks a simulated non-convergence from fault injection.
	Injected bool
}

func (e *NoConvergeError) Error() string {
	switch {
	case e.Injected:
		return "eigen: injected non-convergence (fault eigen.noconverge)"
	case e.NonFinite:
		return fmt.Sprintf("eigen: solve produced non-finite values (residual %.3g after %d restarts)", e.Residual, e.Restarts)
	default:
		return fmt.Sprintf("eigen: did not converge (residual %.3g after %d restarts)", e.Residual, e.Restarts)
	}
}

// finite reports whether every entry of x is a finite float.
func finite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// checkFinitePair guards an iterative solve's output: a NaN/Inf value
// or vector entry becomes a NoConvergeError so the fallback chain trips
// instead of a poisoned ordering reaching the sweep.
func checkFinitePair(theta float64, ritz []float64, restarts int) error {
	if math.IsNaN(theta) || math.IsInf(theta, 0) || !finite(ritz) {
		return &NoConvergeError{Restarts: restarts, NonFinite: true}
	}
	return nil
}

// ctxErr polls an optional context: nil contexts never cancel.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// cancelCheckSteps is how many Krylov steps (one matvec each) may elapse
// between context polls inside a cycle.
const cancelCheckSteps = 16

// convergeCheckSteps is how many Krylov steps elapse between the
// in-cycle convergence tests. A test at step j solves the j×j
// tridiagonal for its eigenvalues and the last row of its eigenvectors,
// O(j²) scalar work, so a cycle that runs to its MaxSteps cap pays
// O(MaxSteps³/convergeCheckSteps) for its tests — a tenth of full
// reorthogonalization's O(n·MaxSteps²) even at n = MaxSteps.
const convergeCheckSteps = 10

// Why a Lanczos cycle ended. Each lanczos-cycle span counts its reason
// under this name, and the metrics registry under "eigen.cycle_"+reason.
const (
	stopConverged = "converged" // the Ritz residual estimate met Tol
	stopInvariant = "invariant" // β vanished: the Krylov space is invariant
	stopBudget    = "budget"    // MaxSteps reached without either
)

// parMatvecMinRows is the dimension from which Options.MatvecWorkers = 0
// turns the parallel matvec on. Below it the goroutine fork/join costs
// more than the row sweep saves.
const parMatvecMinRows = 4096

// matvecWorkers resolves Options.MatvecWorkers against the dimension
// into a ParMulVec workers argument (1 = serial, <= 0 = GOMAXPROCS).
func (o Options) matvecWorkers(n int) int {
	if o.MatvecWorkers != 0 {
		return o.MatvecWorkers
	}
	if n >= parMatvecMinRows {
		return 0
	}
	return 1
}

func (o Options) withDefaults(n int) Options {
	if o.MaxSteps <= 0 {
		if o.BlockSize > 1 {
			o.MaxSteps = 120 // the projected solve is dense in block mode
		} else {
			o.MaxSteps = 300
		}
	}
	if o.MaxSteps > n {
		o.MaxSteps = n
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxRestarts <= 0 {
		o.MaxRestarts = 8
	}
	return o
}

// LargestDeflated computes the largest eigenvalue and a corresponding unit
// eigenvector of op restricted to the orthogonal complement of the deflate
// vectors (which must each be unit length and mutually orthogonal). With an
// empty deflation set it is a plain symmetric Lanczos extremal solve.
//
// The method is Lanczos with full reorthogonalization (each new Krylov
// vector is re-orthogonalized against every stored basis vector and every
// deflation vector), restarted from the best Ritz vector until the residual
// ‖op·x − θx‖ falls below Tol·|θ| or MaxRestarts cycles elapse. A cycle
// ends at MaxSteps or earlier, once its Ritz residual estimate meets Tol.
func LargestDeflated(op Operator, deflate [][]float64, opts Options) (float64, []float64, error) {
	n := op.N()
	if n == 0 {
		return 0, nil, errors.New("eigen: empty operator")
	}
	if len(deflate) >= n {
		return 0, nil, fmt.Errorf("eigen: %d deflation vectors leave no residual space in dimension %d", len(deflate), n)
	}
	opts = opts.withDefaults(n)
	if opts.MaxSteps > n-len(deflate) {
		opts.MaxSteps = n - len(deflate)
	}
	if opts.Fault.Active(fault.EigenNoConverge) {
		// Simulated non-convergence: fail at solve entry exactly as an
		// exhausted restart budget would, so the caller's fallback chain
		// is exercised end to end.
		return 0, nil, &NoConvergeError{Restarts: opts.MaxRestarts, Injected: true}
	}
	if opts.BlockSize > 1 {
		return largestDeflatedBlock(op, deflate, opts)
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	start := make([]float64, n)
	for i := range start {
		start[i] = rng.NormFloat64()
	}

	project := func(x []float64) {
		for _, d := range deflate {
			sparse.Axpy(-sparse.Dot(d, x), d, x)
		}
	}

	rec := obs.OrNop(opts.Rec)
	cycles := 0
	defer func() {
		// Cycles beyond the first are restarts (the paper's solver
		// rarely needs any on netlist-sized Laplacians).
		rec.Count("restarts", int64(cycles-1))
		rec.Metrics().Counter("eigen.restarts").Add(int64(cycles - 1))
	}()

	var (
		theta    float64
		ritz     []float64
		residual = math.Inf(1)
	)
	x := start
	for cycle := 0; cycle < opts.MaxRestarts; cycle++ {
		if err := ctxErr(opts.Ctx); err != nil {
			return 0, nil, err
		}
		cycles++
		csp := rec.StartSpan("lanczos-cycle")
		th, v, res, cst, err := lanczosCycle(op, x, project, opts, rng)
		csp.Count("steps", int64(cst.steps))
		csp.Count("matvecs", int64(cst.matvecs))
		met := rec.Metrics()
		if cst.stop != "" {
			csp.Count(cst.stop, 1)
			met.Counter("eigen.cycle_" + cst.stop).Add(1)
		}
		csp.End()
		met.Counter("eigen.matvecs").Add(int64(cst.matvecs))
		met.Counter("eigen.matvec.rows").Add(int64(cst.matvecs) * int64(n))
		met.Counter("eigen.reorth.skipped").Add(int64(cst.reorthSkipped))
		met.Counter("eigen.reorth.forced").Add(int64(cst.reorthForced))
		if err != nil {
			return 0, nil, err
		}
		theta, ritz, residual = th, v, res
		if residual <= opts.Tol*math.Max(math.Abs(theta), 1) {
			if err := checkFinitePair(theta, ritz, cycle); err != nil {
				return theta, ritz, err
			}
			return theta, ritz, nil
		}
		x = ritz // restart from the best Ritz vector
	}
	if residual <= 1e3*opts.Tol*math.Max(math.Abs(theta), 1) {
		// Close enough for a combinatorial consumer: the sorted order of the
		// eigenvector entries is what partitioning uses.
		if err := checkFinitePair(theta, ritz, opts.MaxRestarts); err != nil {
			return theta, ritz, err
		}
		return theta, ritz, nil
	}
	return theta, ritz, &NoConvergeError{Residual: residual, Restarts: opts.MaxRestarts}
}

// cycleStats aggregates the per-cycle work counters the restart loop
// feeds into spans and the metrics registry.
type cycleStats struct {
	steps         int    // Krylov steps taken
	matvecs       int    // operator applications (steps + residual checks)
	reorthSkipped int    // selective steps where the ω-monitor skipped full reorth
	reorthForced  int    // selective steps where it triggered full reorth
	stop          string // why the cycle ended: stopConverged, stopInvariant or stopBudget
}

// lanczosCycle runs one restart cycle from the given starting vector and
// returns the best Ritz pair, its residual norm, and the cycle's work
// counters. Every convergeCheckSteps steps it estimates the residual of
// the largest Ritz pair from the tridiagonal alone (ritzConverged) and
// ends the cycle once the estimate meets Tol; the returned residual is
// still the true ‖op·x − θx‖, so the restart loop's acceptance never
// rests on the estimate. The stop depends only on α and β, which are
// bit-identical for every MatvecWorkers setting.
func lanczosCycle(op Operator, start []float64, project func([]float64), opts Options, rng *rand.Rand) (float64, []float64, float64, cycleStats, error) {
	n := op.N()
	var st cycleStats
	basis := make([][]float64, 0, opts.MaxSteps)
	alpha := make([]float64, 0, opts.MaxSteps)
	beta := make([]float64, 0, opts.MaxSteps)
	workers := opts.matvecWorkers(n)
	selective := opts.selectiveReorth(n)
	var mon *omegaMonitor
	if selective {
		mon = newOmegaMonitor(opts.MaxSteps, n)
	}

	v := append([]float64(nil), start...)
	project(v)
	if sparse.Normalize(v) == 0 {
		// Start vector lies entirely in the deflated space; draw a random one.
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		project(v)
		if sparse.Normalize(v) == 0 {
			return 0, nil, 0, st, errors.New("eigen: cannot find a starting vector outside the deflation space")
		}
	}
	basis = append(basis, v)

	w := make([]float64, n)
	// Full reorthogonalization, twice for stability ("twice is enough").
	fullReorth := func() {
		for pass := 0; pass < 2; pass++ {
			for _, b := range basis {
				sparse.Axpy(-sparse.Dot(b, w), b, w)
			}
			project(w)
		}
	}
	// In selective mode a triggered cleanup also covers the following
	// step: ω estimates for the in-between vector are unreliable until
	// two consecutive vectors are clean.
	reorthNext := false
	for j := 0; j < opts.MaxSteps; j++ {
		if opts.Ctx != nil && j%cancelCheckSteps == cancelCheckSteps-1 {
			if err := opts.Ctx.Err(); err != nil {
				return 0, nil, 0, st, err
			}
		}
		vj := basis[j]
		opMulVec(op, w, vj, workers)
		st.matvecs++
		project(w)
		a := sparse.Dot(vj, w)
		alpha = append(alpha, a)
		sparse.Axpy(-a, vj, w)
		if j > 0 {
			sparse.Axpy(-beta[j-1], basis[j-1], w)
		}
		if !selective {
			fullReorth()
		} else {
			tentative := sparse.Norm2(w)
			degenerate := tentative <= 1e-14*(math.Abs(a)+1)
			if mon.advance(alpha, beta, tentative) > omegaThreshold || reorthNext || degenerate {
				if !reorthNext {
					reorthNext = true
				} else {
					reorthNext = false
				}
				fullReorth()
				mon.reset()
				st.reorthForced++
			} else {
				project(w)
				st.reorthSkipped++
			}
		}
		st.steps++
		bnorm := sparse.Norm2(w)
		if bnorm <= 1e-14*(math.Abs(a)+1) {
			st.stop = stopInvariant
			break
		}
		if st.steps%convergeCheckSteps == 0 && ritzConverged(alpha, beta, bnorm, opts.Tol) {
			st.stop = stopConverged
			break
		}
		if j == opts.MaxSteps-1 {
			st.stop = stopBudget
			break
		}
		beta = append(beta, bnorm)
		next := make([]float64, n)
		copy(next, w)
		sparse.Scale(1/bnorm, next)
		basis = append(basis, next)
	}

	m := len(alpha)
	vals, z, err := SymTridiagonal(alpha[:m], beta[:min(len(beta), m-1)], true)
	if err != nil {
		return 0, nil, 0, st, err
	}
	// Largest Ritz value is the last (ascending order).
	k := m - 1
	theta := vals[k]
	ritz := make([]float64, n)
	for j := 0; j < m; j++ {
		sparse.Axpy(z[j][k], basis[j], ritz)
	}
	project(ritz)
	sparse.Normalize(ritz)
	// True residual ‖op·x − θx‖ for the assembled Ritz vector.
	opMulVec(op, w, ritz, workers)
	st.matvecs++
	project(w)
	sparse.Axpy(-theta, ritz, w)
	return theta, ritz, sparse.Norm2(w), st, nil
}

// ritzConverged reports whether the largest Ritz pair of the tridiagonal
// T = tridiag(beta, alpha, beta) meets the restart loop's acceptance test
// by its residual estimate. For the Ritz vector y = V·s of θ, the
// Lanczos relation gives ‖op·y − θy‖ = |β_j·s_j| in exact arithmetic,
// with β_j the norm of the next Krylov vector and s_j the bottom entry
// of s. A failed tridiagonal solve reads as not converged: the cycle
// goes on and its closing solve reports the failure.
func ritzConverged(alpha, beta []float64, betaJ, tol float64) bool {
	vals, last, err := symTridiagonalLastRow(alpha, beta)
	if err != nil {
		return false
	}
	k := len(vals) - 1
	return math.Abs(betaJ*last[k]) <= tol*math.Max(math.Abs(vals[k]), 1)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
