package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"igpart/internal/core"
	"igpart/internal/hypergraph"
	"igpart/internal/multilevel"
	"igpart/internal/multiway"
	"igpart/internal/netgen"
	"igpart/internal/obs"
	"igpart/internal/partition"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 9

// Solve kinds of a library operation.
const (
	kindFlat = "igmatch" // core.Partition: flat IG-Match, full sweep
	kindCand = "cand32"  // core.PartitionCandidates with 32 candidates
	kindML   = "ml3"     // multilevel.Partition with 3 levels
	kindKWay = "kway4"   // multiway.Partition, k=4, ε=0.03
	kWay     = 4         // parts of the k-way solve
	kWayEps  = 0.03      // imbalance budget of the k-way solve
	mlLevels = 3         // levels of the ML-IGMatch solve
	nCands   = 32        // candidate splits of the eigen-100k solve
)

// libOp is one solve call of a library workload.
type libOp struct {
	kind    string
	circuit string
	h       *hypergraph.Hypergraph
}

func (op libOp) String() string { return op.kind + "/" + op.circuit }

// opResult is the checked outcome of one solve call.
type opResult struct {
	ratio    float64 // bipartition ratio cut (NaN for k-way)
	spanning int     // k-way spanning nets (0 for bipartitions)
	summary  string  // every reported metric, for run-to-run equality
}

// workloadCircuits names the circuits a library workload solves.
func workloadCircuits(workload string) []netgen.Config {
	if workload == "eigen-100k" {
		c, _ := netgen.ByName("scale100k")
		return []netgen.Config{c}
	}
	c, _ := netgen.ByName("scale10k")
	return append(append([]netgen.Config(nil), netgen.Benchmarks...), c)
}

// libraryOps lists a workload's solve calls in a seed-determined order.
// The circuits are the paper's fixed instances, so quality figures stay
// comparable to Table 2 and to the igpart CLI; the seed orders the calls.
func libraryOps(workload string, nets map[string]*hypergraph.Hypergraph, seed int64) []libOp {
	var ops []libOp
	if workload == "eigen-100k" {
		ops = append(ops, libOp{kindCand, "scale100k", nets["scale100k"]})
	} else {
		for _, c := range workloadCircuits(workload) {
			ops = append(ops, libOp{kindFlat, c.Name, nets[c.Name]})
		}
		ops = append(ops,
			libOp{kindML, "scale10k", nets["scale10k"]},
			libOp{kindKWay, "scale10k", nets["scale10k"]})
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// generate builds a workload's circuits setupReps times and returns the
// last set with the median build time in seconds.
func generate(cfgs []netgen.Config) (map[string]*hypergraph.Hypergraph, float64, error) {
	var nets map[string]*hypergraph.Hypergraph
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		nets = nil
		runtime.GC()
		start := time.Now()
		nets = make(map[string]*hypergraph.Hypergraph, len(cfgs))
		for _, c := range cfgs {
			h, err := netgen.Generate(c)
			if err != nil {
				return nil, 0, fmt.Errorf("generate %s: %w", c.Name, err)
			}
			nets[c.Name] = h
		}
		times = append(times, time.Since(start).Seconds())
	}
	return nets, median(times), nil
}

// solve runs one operation with rec as its recorder and checks its
// output: the returned metrics must equal a fresh evaluation of the
// returned partition, an IG-Match cut must not exceed its matching bound
// (Theorem 5), and a k-way result must be balanced with k non-empty parts.
func solve(op libOp, rec obs.Recorder) (opResult, error) {
	h := op.h
	coreOpts := core.Options{Rec: rec}
	switch op.kind {
	case kindFlat, kindCand:
		var r core.Result
		var err error
		if op.kind == kindFlat {
			r, err = core.Partition(h, coreOpts)
		} else {
			r, err = core.PartitionCandidates(h, nCands, coreOpts)
		}
		if err != nil {
			return opResult{}, err
		}
		if err := checkBipartition(h, r.Partition, r.Metrics); err != nil {
			return opResult{}, err
		}
		if r.Metrics.CutNets > r.BestMatching {
			return opResult{}, fmt.Errorf("cut %d exceeds matching bound %d", r.Metrics.CutNets, r.BestMatching)
		}
		return opResult{ratio: r.Metrics.RatioCut, summary: r.Metrics.String() + " bound=" + strconv.Itoa(r.BestMatching)}, nil
	case kindML:
		r, err := multilevel.Partition(h, multilevel.Options{Levels: mlLevels, Rec: rec})
		if err != nil {
			return opResult{}, err
		}
		if err := checkBipartition(h, r.Partition, r.Metrics); err != nil {
			return opResult{}, err
		}
		return opResult{ratio: r.Metrics.RatioCut, summary: r.Metrics.String()}, nil
	case kindKWay:
		// The eigensolver seed is the igpart CLI's default -seed, so the
		// spanning count equals what `igpart -algo kway` prints.
		coreOpts.Eigen.Seed = 1
		r, err := multiway.Partition(h, multiway.Options{K: kWay, Eps: kWayEps, Core: coreOpts})
		if err != nil {
			return opResult{}, err
		}
		if err := checkKWay(h, r); err != nil {
			return opResult{}, err
		}
		return opResult{ratio: math.NaN(), spanning: r.SpanningNets,
			summary: fmt.Sprintf("sizes=%v spanning=%d connectivity=%d ratio=%v", r.Sizes, r.SpanningNets, r.Connectivity, r.RatioValue)}, nil
	}
	return opResult{}, fmt.Errorf("unknown solve kind %q", op.kind)
}

// checkBipartition re-evaluates p on h and compares with the reported
// metrics.
func checkBipartition(h *hypergraph.Hypergraph, p *partition.Bipartition, got partition.Metrics) error {
	if p == nil || p.NumModules() != h.NumModules() {
		return errors.New("partition does not cover the netlist")
	}
	if want := partition.Evaluate(h, p); want != got {
		return fmt.Errorf("reported %v, re-evaluated %v", got, want)
	}
	return nil
}

// checkKWay re-evaluates a k-way result and checks balance.
func checkKWay(h *hypergraph.Hypergraph, r multiway.Result) error {
	if r.K != kWay || len(r.Part) != h.NumModules() {
		return fmt.Errorf("k-way result has k=%d over %d modules", r.K, len(r.Part))
	}
	ev := multiway.Evaluate(h, r.Part, r.K)
	if ev.SpanningNets != r.SpanningNets || ev.Connectivity != r.Connectivity || ev.RatioValue != r.RatioValue {
		return fmt.Errorf("reported spanning=%d connectivity=%d ratio=%v, re-evaluated %d %d %v",
			r.SpanningNets, r.Connectivity, r.RatioValue, ev.SpanningNets, ev.Connectivity, ev.RatioValue)
	}
	capacity := multiway.PartCap(h.NumModules(), kWay, kWayEps)
	for i, s := range ev.Sizes {
		if s == 0 || s > capacity || s != r.Sizes[i] {
			return fmt.Errorf("part %d holds %d modules (reported %d, cap %d)", i, s, r.Sizes[i], capacity)
		}
	}
	return nil
}

// pass is one timed run over every operation of a workload.
type pass struct {
	seconds float64     // total wall time of the solve calls
	opMS    []float64   // wall time of each call, in op order
	results []opResult  // checked outputs (zero value on failure)
	stages  []obs.Stage // stage trees, when traced
	allocMB float64     // heap bytes allocated during the pass
	gcs     uint32      // garbage collections the pass triggered
	opPeak  []float64   // peak resident memory of each call, in MB
}

// runPass times every operation once. A failed call is recorded in t
// and leaves a zero result.
func runPass(ops []libOp, traced bool, t *tally) (p pass) {
	p = pass{opMS: make([]float64, len(ops)), opPeak: make([]float64, len(ops)), results: make([]opResult, len(ops))}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	defer func() {
		runtime.ReadMemStats(&after)
		p.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		// The benchmark's own runtime.GC calls are not the program's.
		p.gcs = (after.NumGC - after.NumForcedGC) - (before.NumGC - before.NumForcedGC)
	}()
	for i, op := range ops {
		var rec obs.Recorder
		var tr *obs.Trace
		if traced {
			tr = obs.NewTrace(op.String())
			rec = tr
		}
		// Each call starts from a collected heap returned to the OS, with
		// the resident high-water mark reset, as in a fresh process, so
		// its peak memory is its own and not a predecessor's garbage.
		debug.FreeOSMemory()
		if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
			t.fail("reset peak RSS", err)
		}
		start := time.Now()
		r, err := solve(op, rec)
		d := time.Since(start)
		var rssErr error
		if p.opPeak[i], rssErr = peakRSSMB("self"); rssErr != nil {
			t.fail("read peak RSS", rssErr)
		}
		p.opMS[i] = float64(d) / float64(time.Millisecond)
		p.seconds += d.Seconds()
		t.check(op.String(), err)
		if err == nil {
			p.results[i] = r
		}
		if tr != nil {
			p.stages = append(p.stages, tr.Finish())
		}
	}
	return p
}

// sameOutputs checks a later pass against the first: results are a pure
// function of (netlist, options), so every summary must repeat.
func sameOutputs(ops []libOp, first, later pass, t *tally) {
	for i, op := range ops {
		if later.results[i].summary == "" || first.results[i].summary == "" {
			continue // already counted as failed
		}
		if later.results[i].summary != first.results[i].summary {
			t.fail(op.String()+" repeat", fmt.Errorf("got %s, first pass %s", later.results[i].summary, first.results[i].summary))
		}
	}
}

// quality is the geometric-mean bipartition ratio cut and the k-way
// spanning-net total of one pass.
func quality(p pass) (ratioGmean float64, spanning int) {
	var ratios []float64
	for _, r := range p.results {
		if !math.IsNaN(r.ratio) && r.summary != "" {
			ratios = append(ratios, r.ratio)
		}
		spanning += r.spanning
	}
	return gmean(ratios), spanning
}

// runLibrary runs sweep-suite or eigen-100k.
func runLibrary(cfg config) (metrics, *tally, error) {
	nets, setupS, err := generate(workloadCircuits(cfg.workload))
	if err != nil {
		return nil, nil, err
	}
	ops := libraryOps(cfg.workload, nets, cfg.seed)
	t := &tally{}
	m := metrics{}
	if cfg.trace {
		return m, t, traceLibrary(cfg, ops, m, t)
	}

	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var passes []pass
	for len(passes) == 0 || time.Now().Before(deadline) {
		p := runPass(ops, false, t)
		if len(passes) > 0 {
			sameOutputs(ops, passes[0], p, t)
		}
		passes = append(passes, p)
	}
	var passS, opTimes, opPeaks []float64
	for _, p := range passes {
		passS = append(passS, p.seconds)
	}
	for i, op := range ops {
		var ms, mb []float64
		for _, p := range passes {
			ms, mb = append(ms, p.opMS[i]), append(mb, p.opPeak[i])
		}
		// A call's peak memory is bimodal: where the collector's heap
		// goals fall against the call's allocation phases decides whether
		// the peak lands near one goal or the next, about a third higher.
		// The mean over passes is the expected peak and moves smoothly
		// with the share of high passes; a median of a few passes jumps
		// between the two modes.
		opTimes, opPeaks = append(opTimes, median(ms)), append(opPeaks, mean(mb))
		fmt.Fprintf(os.Stderr, "%-18s median %9.1f ms, mean %7.1f MB (passes %.1f) over %d passes  %s\n", op, median(ms), mean(mb), mb, len(ms), passes[0].results[i].summary)
	}
	ratio, spanning := quality(passes[0])
	fmt.Fprintf(os.Stderr, "passes=%d solve_s median=%.3f kway_spanning=%d\n", len(passes), median(passS), spanning)

	m.set("setup_s", setupS, "s")
	m.set("solve_s", median(passS), "s")
	m.set("time_gmean_ms", gmean(opTimes), "ms")
	m.set("ratio_cut_gmean", ratio, "ratio")
	m.set("peak_rss_mb", gmean(opPeaks), "MB")
	return m, t, nil
}
