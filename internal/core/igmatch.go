// Package core implements IG-Match, the paper's contribution: spectral
// ratio-cut partitioning of a netlist via the intersection graph of its
// hypergraph.
//
// The pipeline is exactly the one of Sections 2–3:
//
//  1. Build the intersection graph G' of the netlist (one vertex per net)
//     with the Section 2.2 edge weighting, and its Laplacian Q' = D' − A'.
//  2. Compute the second-smallest eigenpair of Q' (Lanczos); sorting the
//     eigenvector yields a linear ordering of the nets.
//  3. Sweep every split of the net ordering. For each split (L, R), the
//     conflict bipartite graph B(L, R, E_B) is maintained incrementally
//     along with a maximum matching (package bipartite). Phase I extracts
//     the winner nets — a maximum independent set in B — via the Even/Odd
//     alternating-path construction; Phase II assigns the leftover modules
//     in bulk to whichever side gives the better ratio cut.
//  4. Return the best module partition over all splits.
//
// Theorems 4–5 guarantee each completion cuts at most |maximum matching(B)|
// nets; the sweep costs O(m·(m+e)) total for m nets in the worst case
// (Theorem 6). In practice a split costs far less: Phase I re-walks only
// the E_B frontier (Matcher.Classify) and reports the few nets whose class
// changed, and the completer applies just those changes to kept counts, so
// a split costs O(frontier + |E_B| + Σ changed·degree) and Phase II
// scoring is O(1).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"igpart/internal/bipartite"
	"igpart/internal/eigen"
	"igpart/internal/fault"
	"igpart/internal/hypergraph"
	"igpart/internal/netmodel"
	"igpart/internal/obs"
	"igpart/internal/partition"
	"igpart/internal/sparse"
)

// Options configures an IG-Match run. The zero value reproduces the paper's
// configuration.
type Options struct {
	// IG configures intersection-graph construction for the eigensolve
	// (weight scheme, optional thresholding). The conflict graph used for
	// matching always reflects true module sharing regardless of
	// thresholding, so completions stay correct.
	IG netmodel.IGOptions
	// Eigen tunes the Lanczos solver.
	Eigen eigen.Options
	// RecursionDepth, when positive, enables the recursive extension
	// sketched in Section 3: at the best split, the unassigned modules of
	// the residual core are partitioned by a recursive IG-Match call
	// instead of only being bulk-assigned, and the better completion wins.
	// The value bounds the recursion depth.
	RecursionDepth int
	// Trace, when non-nil, receives one record per sweep split.
	Trace *[]SplitRecord
	// Parallelism bounds the number of concurrent sweep shards: the rank
	// range 1..m−1 is cut into that many contiguous pieces, each swept by
	// its own incrementally-maintained matcher bootstrapped from scratch
	// (Hopcroft–Karp) at the shard boundary. 0 uses GOMAXPROCS; 1 forces
	// the serial engine. The result is bit-identical for every value: the
	// shard reduction breaks metric ties by lowest rank, exactly the order
	// the serial sweep encounters splits in.
	Parallelism int
	// Rec, when non-nil, receives hierarchical stage spans (IG build,
	// Laplacian assembly, eigensolve cycles, sweep shards) with wall
	// times and counters, plus run-level metrics. Tracing never changes
	// the result; nil means off and costs nothing on the hot path.
	Rec obs.Recorder
	// Ctx, when non-nil, enables cooperative cancellation: every sweep
	// shard polls it at split granularity and the eigensolver inherits it
	// (polled per Lanczos cycle and every few Krylov steps), so a
	// cancelled run returns promptly with an error wrapping ctx.Err(). A
	// nil or background context changes nothing — results stay
	// bit-identical.
	Ctx context.Context
	// Fault, when non-nil, arms deterministic fault-injection points in
	// the run (eigen.noconverge before each iterative eigensolve,
	// sweep.slow-shard at each shard's start). nil — the production
	// default — disarms every point at zero cost; injection with a fixed
	// seed is reproducible across runs.
	Fault *fault.Injector
	// Balance, when non-nil, restricts accepted completions to those
	// whose U side holds between MinU and MaxU modules; the sweep is
	// pruned to the rank window that can plausibly reach it, and splits
	// whose completions all fall outside count as infeasible. nil — the
	// production default — imposes nothing and keeps the sweep
	// bit-identical to the paper engine. See constrained.go.
	Balance *Balance
	// SweepLo and SweepHi, when SweepHi > 0, restrict the sweep to the
	// 1-based rank window [SweepLo, SweepHi] (intersected with whatever
	// window a Balance budget already imposes). The caller asserts that
	// the globally best split lies inside the window: a warm start from
	// a previous run on a perturbed netlist sweeps only ranks near the
	// previous winner instead of all m−1 splits. Because the shard
	// reduction keeps the earliest best split, a window that contains
	// the full-sweep winner reproduces the full sweep's result exactly.
	// Zero values (the default) sweep everything.
	SweepLo, SweepHi int
	// FixedSides, when non-nil, pins modules before the sweep:
	// FixedSides[v] = 0 pins module v to side U, 1 pins it to side W,
	// and −1 leaves it free. A pinned module pre-assigns its nets'
	// sides in every König completion and is never reassigned by
	// Phase II. nil leaves every module free, bit-identical to the
	// unpinned engine. Incompatible with RecursionDepth, which is
	// ignored while constraints are active.
	FixedSides []int8
}

// ctxErr polls an optional context: nil contexts never cancel.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// SplitRecord captures the state of one sweep split for analysis. Splits
// where no proper completion exists (every option left a side empty) are
// recorded with CutNets = −1 and RatioCut = +Inf.
type SplitRecord struct {
	Rank         int     // nets moved to R so far (1..m−1)
	MatchingSize int     // |MM(B)| — upper bound on the completed cut
	CutNets      int     // cut of the better completion at this split
	RatioCut     float64 // ratio cut of the better completion
}

// Result is the outcome of an IG-Match run.
type Result struct {
	// Partition is the best module bipartition found.
	Partition *partition.Bipartition
	// Metrics evaluates Partition on the input netlist.
	Metrics partition.Metrics
	// NetOrder is the eigenvector-sorted net ordering driving the sweep.
	NetOrder []int
	// Lambda2 is the second-smallest eigenvalue of Q'(G').
	Lambda2 float64
	// BestRank is the number of nets on the R side at the winning split.
	BestRank int
	// BestMatching is |MM(B)| at the winning split; by Theorem 5 the
	// completed partition cuts at most this many nets.
	BestMatching int
	// Recursed reports whether the recursive completion improved on the
	// bulk Phase II assignment at the winning split.
	Recursed bool
}

// Partition runs IG-Match on the netlist h.
func Partition(h *hypergraph.Hypergraph, opts Options) (Result, error) {
	m := h.NumNets()
	if m < 2 {
		return Result{}, errors.New("core: IG-Match needs at least 2 nets")
	}
	if h.NumModules() < 2 {
		return Result{}, errors.New("core: IG-Match needs at least 2 modules")
	}
	order, lambda2, err := fiedlerOrder(h, opts)
	if err != nil {
		return Result{}, err
	}
	res, err := sweep(h, order, opts)
	if err != nil {
		return Result{}, err
	}
	res.Lambda2 = lambda2
	return res, nil
}

// fiedlerOrder runs pipeline steps 1–2: build the intersection graph and
// its Laplacian, solve for the Fiedler pair, and sort the nets by
// eigenvector component. Each stage gets its own span; the eigensolve
// span doubles as the recorder for the solver's per-cycle detail.
func fiedlerOrder(h *hypergraph.Hypergraph, opts Options) ([]int, float64, error) {
	rec := obs.OrNop(opts.Rec)
	sp := rec.StartSpan("ig-build")
	g := netmodel.IntersectionGraph(h, opts.IG)
	sp.Count("nets", int64(h.NumNets()))
	sp.Count("ig-edges", int64(g.OffDiagNNZ()/2))
	sp.End()

	sp = rec.StartSpan("laplacian")
	q := sparse.Laplacian(g)
	sp.End()

	esp := rec.StartSpan("eigensolve")
	eo := opts.Eigen
	if eo.Rec == nil {
		eo.Rec = esp
	}
	if eo.Ctx == nil {
		eo.Ctx = opts.Ctx
	}
	if eo.Fault == nil {
		eo.Fault = opts.Fault
	}
	fied, err := eigen.Fiedler(q, eo)
	esp.End()
	if err != nil {
		return nil, 0, fmt.Errorf("core: eigensolve failed: %w", err)
	}
	rec.Metrics().Gauge("eigen.lambda2").Set(fied.Lambda2)
	return SortNetsByVector(fied.Vector), fied.Lambda2, nil
}

// PartitionWithOrder runs the IG-Match sweep over an externally supplied
// net ordering (a permutation of 0..NumNets−1). It exposes the completion
// machinery independently of the eigensolve, which the tests and the
// recursive extension rely on.
func PartitionWithOrder(h *hypergraph.Hypergraph, order []int, opts Options) (Result, error) {
	if len(order) != h.NumNets() {
		return Result{}, fmt.Errorf("core: order has %d entries, want %d", len(order), h.NumNets())
	}
	return sweep(h, order, opts)
}

// SortNetsByVector returns net indices sorted by ascending eigenvector
// component, with index order breaking ties deterministically.
func SortNetsByVector(x []float64) []int {
	order := make([]int, len(x))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return x[order[a]] < x[order[b]] })
	return order
}

// IGAdjacency builds unweighted intersection-graph adjacency lists: nets a
// and b are adjacent iff they share at least one module. This is the host
// graph for the conflict bipartite graph B.
//
// The lists share one backing array sized by an exact counting pass, so
// building costs two pin-bucket sweeps but a single allocation — at 10⁵+
// nets the per-row append growth it replaces dominated peak memory.
func IGAdjacency(h *hypergraph.Hypergraph) [][]int {
	m := h.NumNets()
	adj := make([][]int, m)
	stamp := make([]int, m)
	for i := range stamp {
		stamp[i] = -1
	}
	counts := make([]int, m+1)
	for a := 0; a < m; a++ {
		for _, v := range h.Pins(a) {
			for _, b := range h.Nets(v) {
				if b == a || stamp[b] == a {
					continue
				}
				stamp[b] = a
				counts[a+1]++
			}
		}
	}
	for a := 0; a < m; a++ {
		counts[a+1] += counts[a]
	}
	backing := make([]int, counts[m])
	for i := range stamp {
		stamp[i] = -1
	}
	for a := 0; a < m; a++ {
		row := backing[counts[a]:counts[a]:counts[a+1]]
		for _, v := range h.Pins(a) {
			for _, b := range h.Nets(v) {
				if b == a || stamp[b] == a {
					continue
				}
				stamp[b] = a
				row = append(row, b)
			}
		}
		adj[a] = row
	}
	return adj
}

// sweep runs the IG-Match main loop over the given net order, dispatching
// between the serial engine (one incremental matcher walking every split)
// and the parallel sharded engine of parallel.go. Both Phase II bulk
// options of a split are scored from the completer's kept counts, and a
// concrete partition is only materialized when the split improves on the
// shard's best so far.
func sweep(h *hypergraph.Hypergraph, order []int, opts Options) (Result, error) {
	m := h.NumNets()
	cons, err := newConstraints(opts, h.NumModules())
	if err != nil {
		return Result{}, err
	}
	rec := obs.OrNop(opts.Rec)
	sp := rec.StartSpan("conflict-adjacency")
	adj := IGAdjacency(h)
	sp.End()
	nSplits := m - 1

	// Pre-sized trace indexed by rank−1 so parallel workers write their
	// shard's slots without locks; appended to opts.Trace at the end, which
	// keeps the serial append semantics bit-identical.
	var trace []SplitRecord
	if opts.Trace != nil {
		trace = make([]SplitRecord, nSplits)
	}

	// A balance budget prunes the sweep to the rank window that can
	// plausibly reach it; unconstrained runs sweep every rank as before.
	loRank, hiRank := 1, nSplits
	if cons != nil {
		loRank, hiRank = balanceRankWindow(cons.bal, h.NumModules(), nSplits)
	}
	// An explicit sweep window (warm starts) intersects the balance
	// window; clamp to the valid rank range so callers can center a
	// window near the ends without bounds bookkeeping.
	if opts.SweepHi > 0 {
		if opts.SweepLo > loRank {
			loRank = opts.SweepLo
		}
		if opts.SweepHi < hiRank {
			hiRank = opts.SweepHi
		}
		if loRank > hiRank {
			return Result{}, fmt.Errorf("core: empty sweep window [%d,%d]", loRank, hiRank)
		}
	}

	sw := rec.StartSpan("sweep")
	shards := runShards(opts.Ctx, h, adj, order, loRank, hiRank, shardCount(opts.Parallelism, hiRank-loRank+1), trace, sw, opts.Fault, cons)

	// Deterministic reduction: shards cover ascending rank ranges, and a
	// later shard only displaces the incumbent on a strict metric
	// improvement — so metric ties resolve to the lowest rank, exactly the
	// split the serial sweep would have kept.
	best := Result{NetOrder: order}
	bestCost := partition.Metrics{RatioCut: inf()}
	haveBest := false
	for _, sb := range shards {
		if sb.err != nil {
			sw.End()
			if _, ok := fault.AsPanic(sb.err); ok {
				return Result{}, fmt.Errorf("core: sweep shard panicked: %w", sb.err)
			}
			return Result{}, fmt.Errorf("core: sweep cancelled: %w", sb.err)
		}
		if sb.have && better(sb.met, bestCost) {
			bestCost = sb.met
			best.Partition = sb.part
			best.Metrics = sb.met
			best.BestRank = sb.rank
			best.BestMatching = sb.matching
			haveBest = true
		}
	}
	sw.Count("shards", int64(len(shards)))
	sw.End()
	if opts.Trace != nil {
		*opts.Trace = append(*opts.Trace, trace...)
	}
	if !haveBest {
		if cons != nil {
			return Result{}, ErrNoFeasibleCompletion
		}
		return Result{}, errors.New("core: no proper completion found (every split left one side empty)")
	}
	rec.Metrics().Gauge("sweep.best_rank").Set(float64(best.BestRank))
	rec.Metrics().Gauge("sweep.best_ratio").Set(best.Metrics.RatioCut)

	// The recursive extension's completion machinery is pin- and
	// balance-oblivious, so it only augments unconstrained runs.
	if opts.RecursionDepth > 0 && cons == nil {
		if p2, met2, ok := completeRecursive(h, winnersAt(adj, order, best.BestRank), opts); ok && better(met2, best.Metrics) {
			best.Partition = p2
			best.Metrics = met2
			best.Recursed = true
		}
	}
	return best, nil
}

// shardBest is one shard's winning split, ready for the cross-shard
// reduction. err is non-nil only when the shard was cancelled mid-sweep,
// in which case the whole sweep result is discarded.
type shardBest struct {
	have     bool
	met      partition.Metrics
	part     *partition.Bipartition
	rank     int
	matching int
	err      error
}

// sweepShard sweeps the contiguous rank range [lo, hi) with its own
// incremental matcher and completer. A shard starting past rank 1 is
// bootstrapped with a from-scratch Hopcroft–Karp matching at its boundary
// split; from there every split is handled exactly as in the serial sweep,
// so per-split trace records and the shard-local best are identical to the
// serial engine's view of the same ranks. When trace is non-nil the shard
// writes records at trace[rank−1] — disjoint slots across shards.
//
// Each split is incremental end to end: the matcher reclassifies only the
// E_B frontier and reports the nets whose class changed, the completer
// applies those changes to its kept counts, and both bulk options are
// scored in O(1). One full recount seeds the counts at the shard's first
// split.
//
// sp is the shard's stage span. Per-split tallies stay in local integers
// regardless of tracing and are flushed to the span (and the run-wide
// registry) once at shard exit, so the traced and untraced loops execute
// the same per-split instructions.
func sweepShard(ctx context.Context, h *hypergraph.Hypergraph, adj [][]int, order []int, lo, hi int, trace []SplitRecord, sp obs.Recorder, cons *constraints) shardBest {
	var matcher *bipartite.Matcher
	if lo == 1 {
		matcher = bipartite.NewMatcher(adj)
	} else {
		inR := make([]bool, len(adj))
		for i := 0; i < lo-1; i++ {
			inR[order[i]] = true
		}
		matcher = bipartite.NewMatcherAt(adj, inR)
	}
	matcher.TrackClasses()
	comp := newCompleter(h, cons)

	var sb shardBest
	bestCost := partition.Metrics{RatioCut: inf()}
	var winners, improved, infeasible int64
	for rank := lo; rank < hi; rank++ {
		// Cooperative cancellation at split granularity: one context poll
		// per split keeps cancellation latency to a single split.
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				sb.err = err
				break
			}
		}
		matcher.MoveToR(order[rank-1])
		changes := matcher.Classify()
		if rank == lo {
			comp.recount(matcher.TrackedSets())
		} else {
			comp.apply(changes)
		}
		winners += int64(matcher.EvenCount())
		var met partition.Metrics
		var vnSide partition.Side
		var ok bool
		if comp.cons == nil {
			met, vnSide, ok = comp.evaluate()
		} else {
			met, ok = comp.evaluateConstrained()
		}
		if trace != nil {
			rec := SplitRecord{
				Rank:         rank,
				MatchingSize: matcher.MatchingSize(),
				CutNets:      met.CutNets,
				RatioCut:     met.RatioCut,
			}
			if !ok {
				rec.CutNets = -1
				rec.RatioCut = math.Inf(1)
			}
			trace[rank-1] = rec
		}
		if !ok {
			infeasible++
			continue
		}
		if better(met, bestCost) {
			bestCost = met
			improved++
			sb.have = true
			sb.met = met
			sb.part = comp.materializeBest(vnSide)
			sb.rank = rank
			sb.matching = matcher.MatchingSize()
		}
	}
	splits := int64(hi - lo)
	sp.Count("splits", splits)
	sp.Count("phase1-winners", winners)
	sp.Count("frontier-visits", matcher.FrontierVisits())
	sp.Count("class-changes", matcher.ClassChanges())
	sp.Count("phase2-evals", splits-infeasible)
	sp.Count("infeasible", infeasible)
	sp.Count("improved", improved)
	sp.Count("augmentations", int64(matcher.Augmentations()))
	reg := sp.Metrics()
	reg.Counter("sweep.splits").Add(splits)
	reg.Counter("sweep.augmentations").Add(int64(matcher.Augmentations()))
	reg.Counter("sweep.phase1_winners").Add(winners)
	reg.Counter("sweep.frontier_visits").Add(matcher.FrontierVisits())
	reg.Counter("sweep.class_changes").Add(matcher.ClassChanges())
	sp.End()
	return sb
}

// winnersAt classifies the split at rank from scratch: the winner sets
// the recursive extension completes around. The classification is
// canonical, so it equals what the sweep saw at that rank.
func winnersAt(adj [][]int, order []int, rank int) bipartite.Sets {
	inR := make([]bool, len(adj))
	for _, e := range order[:rank] {
		inR[e] = true
	}
	return bipartite.NewMatcherAt(adj, inR).Winners()
}

// completer evaluates Phase II completions from kept counts. Per module
// it counts the incident Even(L) and Even(R) nets, which fix the winner
// coloring; per net it counts the pins colored U and W (the rest are
// V_N). From those it keeps the cut of both bulk placements of V_N and
// the colored side sizes, so scoring a split is O(1). A sweep seeds the
// counts with one recount and then applies only the class changes of each
// split; the cost of a split is the degrees of the modules and nets those
// changes touch.
type completer struct {
	h *hypergraph.Hypergraph
	// assigned holds the winner coloring: 0 = unassigned (V_N),
	// 1 = V_L (side U), 2 = V_R (side W). Pinned modules keep their
	// permanent color and are never recolored.
	assigned []uint8
	nEL, nER []int32 // per module: incident Even(L) / Even(R) nets
	netU     []int32 // per net: pins colored U
	netW     []int32 // per net: pins colored W
	nU, nW   int     // free modules colored U / W
	cutToU   int     // nets cut when V_N joins U
	cutToW   int     // nets cut when V_N joins W
	touched  []int   // modules whose winner counts moved in apply
	dirty    []bool  // module is in touched

	// Constrained-engine state; nil/unused on the paper path.
	cons     *constraints
	fixedCol []uint8        // alias of cons.fixed, nil when unpinned
	affU     []int32        // per-V_N-module affinity to the colored U side
	affW     []int32        // ... and to the colored W side
	vn       []int          // V_N modules of the current split
	vnPos    []int32        // module → position in the affinity-sorted V_N order
	balX     int            // balanced completion: V_N prefix sent to U; −1 = bulk
	balSide  partition.Side // bulk side when balX < 0
}

func newCompleter(h *hypergraph.Hypergraph, cons *constraints) *completer {
	n, m := h.NumModules(), h.NumNets()
	c := &completer{
		h:        h,
		assigned: make([]uint8, n),
		nEL:      make([]int32, n),
		nER:      make([]int32, n),
		netU:     make([]int32, m),
		netW:     make([]int32, m),
		dirty:    make([]bool, n),
	}
	if cons != nil {
		c.cons = cons
		c.affU = make([]int32, n)
		c.affW = make([]int32, n)
		c.vn = make([]int, 0, n)
		c.vnPos = make([]int32, n)
		c.fixedCol = cons.fixed
	}
	return c
}

// netCut reports whether a net with u pins on U, w on W and the rest of
// its size in V_N is cut when V_N joins U, and when it joins W.
func netCut(u, w, size int32) (toU, toW int) {
	n := size - u - w
	if w > 0 && (u > 0 || n > 0) {
		toU = 1
	}
	if u > 0 && (w > 0 || n > 0) {
		toW = 1
	}
	return toU, toW
}

// winnerColor is module v's color: its pinned side, or else the color
// its winner-net counts give. A module in both an Even(L) and an Even(R)
// net cannot occur with a maximum matching; W wins, as the later of the
// two colorings would.
func (c *completer) winnerColor(v int) uint8 {
	switch {
	case c.fixedCol != nil && c.fixedCol[v] != 0:
		return c.fixedCol[v]
	case c.nER[v] > 0:
		return 2
	case c.nEL[v] > 0:
		return 1
	}
	return 0
}

// recount rebuilds every count from scratch for the winner classification
// sets: O(modules + pins). It seeds a sweep shard's first split and scores
// each candidate split.
func (c *completer) recount(sets bipartite.Sets) {
	clear(c.nEL)
	clear(c.nER)
	for _, e := range sets.EvenL {
		for _, v := range c.h.Pins(e) {
			c.nEL[v]++
		}
	}
	for _, e := range sets.EvenR {
		for _, v := range c.h.Pins(e) {
			c.nER[v]++
		}
	}
	c.nU, c.nW = 0, 0
	for v := range c.assigned {
		col := c.winnerColor(v)
		c.assigned[v] = col
		if c.fixedCol == nil || c.fixedCol[v] == 0 {
			c.tally(col, 1)
		}
	}
	c.cutToU, c.cutToW = 0, 0
	for e := range c.netU {
		pins := c.h.Pins(e)
		var u, w int32
		for _, v := range pins {
			switch c.assigned[v] {
			case 1:
				u++
			case 2:
				w++
			}
		}
		c.netU[e], c.netW[e] = u, w
		toU, toW := netCut(u, w, int32(len(pins)))
		c.cutToU += toU
		c.cutToW += toW
	}
}

// apply updates the counts for the class changes of one split: each net
// that entered or left Even(L) or Even(R) moves its pins' winner counts,
// and each module whose color changes moves its nets' pin counts and the
// kept cuts.
func (c *completer) apply(changes []bipartite.ClassChange) {
	for _, ch := range changes {
		dL := isClass(ch.To, bipartite.ClassEvenL) - isClass(ch.From, bipartite.ClassEvenL)
		dR := isClass(ch.To, bipartite.ClassEvenR) - isClass(ch.From, bipartite.ClassEvenR)
		if dL == 0 && dR == 0 {
			continue
		}
		for _, v := range c.h.Pins(int(ch.V)) {
			c.nEL[v] += dL
			c.nER[v] += dR
			if !c.dirty[v] {
				c.dirty[v] = true
				c.touched = append(c.touched, v)
			}
		}
	}
	for _, v := range c.touched {
		c.dirty[v] = false
		c.recolor(v)
	}
	c.touched = c.touched[:0]
}

// tally adds d free modules to the side of color col.
func (c *completer) tally(col uint8, d int) {
	switch col {
	case 1:
		c.nU += d
	case 2:
		c.nW += d
	}
}

func isClass(c, want bipartite.Class) int32 {
	if c == want {
		return 1
	}
	return 0
}

// recolor brings module v's color in line with its winner counts,
// updating the side sizes, its nets' pin counts and the kept cuts.
func (c *completer) recolor(v int) {
	old, col := c.assigned[v], c.winnerColor(v)
	if old == col {
		return
	}
	c.assigned[v] = col
	c.tally(old, -1)
	c.tally(col, 1)
	for _, e := range c.h.Nets(v) {
		size := int32(c.h.NetSize(e))
		u, w := c.netU[e], c.netW[e]
		toU, toW := netCut(u, w, size)
		c.cutToU -= toU
		c.cutToW -= toW
		switch old {
		case 1:
			u--
		case 2:
			w--
		}
		switch col {
		case 1:
			u++
		case 2:
			w++
		}
		c.netU[e], c.netW[e] = u, w
		toU, toW = netCut(u, w, size)
		c.cutToU += toU
		c.cutToW += toW
	}
}

// materializeBest dispatches between the unconstrained and constrained
// materializations for the completion chosen by the last evaluate call.
func (c *completer) materializeBest(vnSide partition.Side) *partition.Bipartition {
	if c.cons == nil {
		return c.materialize(vnSide)
	}
	return c.materializeConstrained()
}

// bulkOptions scores both bulk placements of V_N from the kept counts:
// metU sends V_N to U, metW to W. Pinned modules count on their sides.
func (c *completer) bulkOptions() (metU, metW partition.Metrics) {
	nU, nW := c.nU, c.nW
	if c.cons != nil {
		nU += c.cons.fixedU
		nW += c.cons.fixedW
	}
	nN := c.h.NumModules() - nU - nW
	metU = partition.Metrics{
		CutNets: c.cutToU, SizeU: nU + nN, SizeW: nW,
		RatioCut: partition.RatioCutFrom(c.cutToU, nU+nN, nW),
	}
	metW = partition.Metrics{
		CutNets: c.cutToW, SizeU: nU, SizeW: nW + nN,
		RatioCut: partition.RatioCutFrom(c.cutToW, nU, nW+nN),
	}
	return metU, metW
}

// evaluate scores both bulk placements of the unassigned modules for the
// current counts, returning the better option's metrics and which side
// V_N goes to. ok is false when both options leave a side empty. O(1).
func (c *completer) evaluate() (partition.Metrics, partition.Side, bool) {
	metU, metW := c.bulkOptions()
	okU := metU.SizeU > 0 && metU.SizeW > 0
	okW := metW.SizeU > 0 && metW.SizeW > 0
	switch {
	case okU && (!okW || !better(metW, metU)): // ties go to the U option
		return metU, sideU, true
	case okW:
		return metW, sideW, true
	default:
		return partition.Metrics{}, sideU, false
	}
}

// materialize builds the partition for the current coloring with V_N on
// the given side. Must be called before the next evaluate.
func (c *completer) materialize(vnSide partition.Side) *partition.Bipartition {
	sides := make([]partition.Side, c.h.NumModules())
	for v := range sides {
		switch c.assigned[v] {
		case 1:
			sides[v] = sideU
		case 2:
			sides[v] = sideW
		default:
			sides[v] = vnSide
		}
	}
	return partition.FromSides(sides)
}

func inf() float64 { return math.Inf(1) }

// better orders candidate completions: primarily by ratio cut, then by
// fewer cut nets, making the sweep deterministic.
func better(a, b partition.Metrics) bool {
	if a.RatioCut != b.RatioCut {
		return a.RatioCut < b.RatioCut
	}
	return a.CutNets < b.CutNets
}

const (
	sideU partition.Side = partition.U
	sideW partition.Side = partition.W
)

// assignWinners colors modules by the winner nets: V_L ← modules of Even(L)
// nets (side U), V_R ← modules of Even(R) nets (side W). It returns the
// list of unassigned (V_N) modules. The two winner module sets are disjoint
// when the matching is maximum, which the Matcher guarantees.
func assignWinners(h *hypergraph.Hypergraph, sets bipartite.Sets, sides []partition.Side, assigned []bool) (vn []int) {
	for i := range assigned {
		assigned[i] = false
	}
	for _, e := range sets.EvenL {
		for _, v := range h.Pins(e) {
			sides[v] = sideU
			assigned[v] = true
		}
	}
	for _, e := range sets.EvenR {
		for _, v := range h.Pins(e) {
			sides[v] = sideW
			assigned[v] = true
		}
	}
	for v := range assigned {
		if !assigned[v] {
			vn = append(vn, v)
		}
	}
	return vn
}

// completeBulk performs Phase II: both bulk placements of the unassigned
// modules are evaluated and the better one returned. ok is false when both
// options leave a side empty (no proper bipartition exists at this split).
func completeBulk(h *hypergraph.Hypergraph, sets bipartite.Sets, sides []partition.Side) (partition.Metrics, *partition.Bipartition, bool) {
	assigned := make([]bool, h.NumModules())
	vn := assignWinners(h, sets, sides, assigned)

	bestMet := partition.Metrics{RatioCut: inf()}
	var bestSides []partition.Side
	for _, opt := range []partition.Side{sideU, sideW} {
		for _, v := range vn {
			sides[v] = opt
		}
		p := partition.FromSides(sides)
		met := partition.Evaluate(h, p)
		if met.SizeU == 0 || met.SizeW == 0 {
			continue
		}
		if better(met, bestMet) {
			bestMet = met
			bestSides = append(bestSides[:0], sides...)
		}
	}
	if bestSides == nil {
		return partition.Metrics{}, nil, false
	}
	return bestMet, partition.FromSides(bestSides), true
}

// completeRecursive implements the recursive extension: the unassigned
// modules are partitioned by a recursive IG-Match call on their induced
// sub-hypergraph, and the two orientations of that sub-partition are
// evaluated against the winner assignment.
func completeRecursive(h *hypergraph.Hypergraph, sets bipartite.Sets, opts Options) (*partition.Bipartition, partition.Metrics, bool) {
	sides := make([]partition.Side, h.NumModules())
	assigned := make([]bool, h.NumModules())
	vn := assignWinners(h, sets, sides, assigned)
	if len(vn) < 2 {
		return nil, partition.Metrics{}, false
	}
	keep := make([]bool, h.NumModules())
	for _, v := range vn {
		keep[v] = true
	}
	sub, moduleMap, _ := hypergraph.SubHypergraph(h, keep)
	if sub.NumNets() < 2 {
		return nil, partition.Metrics{}, false
	}
	rsp := obs.OrNop(opts.Rec).StartSpan("recursive-completion")
	defer rsp.End()
	subOpts := opts
	subOpts.RecursionDepth--
	subOpts.Trace = nil
	subOpts.Rec = rsp
	subRes, err := Partition(sub, subOpts)
	if err != nil {
		return nil, partition.Metrics{}, false
	}

	bestMet := partition.Metrics{RatioCut: inf()}
	var bestSides []partition.Side
	for flip := 0; flip < 2; flip++ {
		for i, v := range moduleMap {
			s := subRes.Partition.Side(i)
			if flip == 1 {
				s = s.Opposite()
			}
			sides[v] = s
		}
		p := partition.FromSides(sides)
		met := partition.Evaluate(h, p)
		if met.SizeU == 0 || met.SizeW == 0 {
			continue
		}
		if better(met, bestMet) {
			bestMet = met
			bestSides = append(bestSides[:0], sides...)
		}
	}
	if bestSides == nil {
		return nil, partition.Metrics{}, false
	}
	return partition.FromSides(bestSides), bestMet, true
}

// CompleteNetPartition exposes the Phase I + Phase II completion for an
// arbitrary net bipartition (inR[e] placing net e on the R side). It
// returns the better bulk completion along with the matching size of the
// conflict graph — the Theorem 5 bound on the cut.
func CompleteNetPartition(h *hypergraph.Hypergraph, inR []bool) (*partition.Bipartition, partition.Metrics, int, error) {
	if len(inR) != h.NumNets() {
		return nil, partition.Metrics{}, 0, fmt.Errorf("core: inR has %d entries, want %d", len(inR), h.NumNets())
	}
	adj := IGAdjacency(h)
	matcher := bipartite.NewMatcher(adj)
	for e, r := range inR {
		if r {
			matcher.MoveToR(e)
		}
	}
	sets := matcher.Winners()
	sides := make([]partition.Side, h.NumModules())
	met, p, ok := completeBulk(h, sets, sides)
	if !ok {
		return nil, partition.Metrics{}, 0, errors.New("core: completion leaves a side empty")
	}
	return p, met, matcher.MatchingSize(), nil
}
