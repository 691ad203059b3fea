package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"igpart/internal/cluster"
	"igpart/internal/core"
	"igpart/internal/hypergraph"
	"igpart/internal/netmodel"
	"igpart/internal/obs"
	"igpart/internal/portfolio"
	"igpart/internal/sparse"
)

// probeMinTime is how long a micro-probe repeats its call; the reported
// figure is the median repetition.
const probeMinTime = 300 * time.Millisecond

// spanWalk visits every stage of the trees in depth-first order.
func spanWalk(stages []obs.Stage, visit func(s obs.Stage)) {
	for _, s := range stages {
		visit(s)
		spanWalk(s.Children, visit)
	}
}

// spanSum totals the wall time (ms) and a counter over every span whose
// name matches; found reports whether any matched.
func spanSum(stages []obs.Stage, match func(string) bool, counter string) (ms float64, count int64, found bool) {
	spanWalk(stages, func(s obs.Stage) {
		if match(s.Name) {
			found = true
			ms += float64(s.DurationNS) / 1e6
			if counter != "" {
				count += s.Sum(counter)
			}
		}
	})
	return ms, count, found
}

func named(name string) func(string) bool { return func(s string) bool { return s == name } }

// repeatMS calls f until probeMinTime has passed (at least five times)
// and returns the median call time in ms.
func repeatMS(f func() error) (float64, error) {
	var times []float64
	start := time.Now()
	for len(times) < 5 || time.Since(start) < probeMinTime {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return median(times), nil
}

// probeInputs are the small inputs on which layers a workload does not
// exercise are measured: a fresh Prim1-sized netlist, its solved
// IG-Match result, and a seeded ECO delta against it — the serve
// workload's inputs.
type probeInputs struct {
	h     *hypergraph.Hypergraph
	base  core.Result
	delta portfolio.Delta
}

func newProbeInputs(seed int64) (probeInputs, error) {
	p1, err := prim1()
	if err != nil {
		return probeInputs{}, err
	}
	h := freshNetlist(p1, seed)
	base, err := core.Partition(h, core.Options{})
	if err != nil {
		return probeInputs{}, fmt.Errorf("probe solve: %w", err)
	}
	return probeInputs{h: h, base: base, delta: ecoDelta(h, seed)}, nil
}

// libraryLayers measures every in-process layer. It runs the workload's
// solve calls once untraced and once with an obs.Trace per call; the
// traced stage trees give the layer times and counters. A layer the
// calls never reach is timed by calling its public function, traced, on
// the probe inputs. main is the workload's largest netlist, on which the
// matvec kernel is timed.
func libraryLayers(cfg config, ops []libOp, main *hypergraph.Hypergraph, pr probeInputs, m metrics, t *tally) error {
	untraced := runPass(ops, false, t)
	traced := runPass(ops, true, t)
	sameOutputs(ops, untraced, traced, t)
	m.set("trace.untraced_solve_s", untraced.seconds, "s")
	m.set("trace.solve_s", traced.seconds, "s")
	m.set("trace.overhead_frac", traced.seconds/untraced.seconds-1, "ratio")
	m.set("runtime.alloc_mb", untraced.allocMB, "MB")
	m.set("runtime.gc_cycles", float64(untraced.gcs), "count")

	st := traced.stages
	igMS, igEdges, _ := spanSum(st, named("ig-build"), "ig-edges")
	lapMS, _, _ := spanSum(st, named("laplacian"), "")
	eigMS, steps, _ := spanSum(st, named("eigensolve"), "steps")
	_, matvecs, _ := spanSum(st, named("eigensolve"), "matvecs")
	_, restarts, _ := spanSum(st, named("eigensolve"), "restarts")
	adjMS, _, _ := spanSum(st, named("conflict-adjacency"), "")
	sweepMS, _, hasSweep := spanSum(st, named("sweep"), "")
	candMS, _, hasCand := spanSum(st, named("candidate-sweep"), "")
	share := (igMS + lapMS + eigMS + adjMS + sweepMS + candMS) / (traced.seconds * 1e3)
	fmt.Fprintf(os.Stderr, "traced solve %.3f s (untraced %.3f s): ig-build %.0f laplacian %.0f eigensolve %.0f conflict-adjacency %.0f sweep %.0f candidate-sweep %.0f ms = %.1f%%\n",
		traced.seconds, untraced.seconds, igMS, lapMS, eigMS, adjMS, sweepMS, candMS, 100*share)
	m.set("trace.layer_share", share, "ratio")
	m.set("netmodel.ig_build_ms", igMS, "ms")
	m.set("netmodel.ig_edges", float64(igEdges), "count")
	m.set("netmodel.laplacian_ms", lapMS, "ms")
	m.set("eigen.fiedler_ms", eigMS, "ms")
	m.set("eigen.lanczos_steps", float64(steps), "count")
	m.set("eigen.matvecs", float64(matvecs), "count")
	m.set("eigen.restarts", float64(restarts), "count")
	m.set("eigen.ms_per_step", eigMS/float64(max(steps, 1)), "ms")
	m.set("core.conflict_adjacency_ms", adjMS, "ms")

	// probe runs one traced call on the probe netlist for a layer the
	// workload's calls did not reach.
	probe := func(name string, f func(rec obs.Recorder) error) ([]obs.Stage, float64) {
		tr := obs.NewTrace(name)
		start := time.Now()
		err := f(tr)
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		t.check("probe "+name, err)
		return []obs.Stage{tr.Finish()}, ms
	}
	sweepStages := st
	if !hasSweep {
		sweepStages, _ = probe("sweep", func(rec obs.Recorder) error {
			r, err := core.PartitionWithOrder(pr.h, pr.base.NetOrder, core.Options{Rec: rec})
			if err == nil {
				err = checkBipartition(pr.h, r.Partition, r.Metrics)
			}
			return err
		})
	}
	sweepMS, splits, _ := spanSum(sweepStages, named("sweep"), "splits")
	_, winners, _ := spanSum(sweepStages, named("sweep"), "phase1-winners")
	_, augs, _ := spanSum(sweepStages, named("sweep"), "augmentations")
	m.set("core.sweep_ms", sweepMS, "ms")
	m.set("core.sweep_us_per_split", 1e3*sweepMS/float64(max(splits, 1)), "us")
	m.set("bipartite.phase1_winner_visits", float64(winners), "count")
	m.set("bipartite.augmentations", float64(augs), "count")
	m.set("bipartite.splits", float64(splits), "count")
	m.set("bipartite.visits_per_augmentation", float64(winners)/float64(max(augs, 1)), "ratio")

	if !hasCand {
		candStages, _ := probe("candidate-sweep", func(rec obs.Recorder) error {
			r, err := core.PartitionCandidatesWithOrder(pr.h, pr.base.NetOrder, nCands, core.Options{Rec: rec})
			if err == nil {
				err = checkBipartition(pr.h, r.Partition, r.Metrics)
			}
			return err
		})
		candMS, _, _ = spanSum(candStages, named("candidate-sweep"), "")
	}
	m.set("core.candidate_sweep_ms", candMS, "ms")

	// Multilevel and multiway: the calls' own wall times when the
	// workload runs them, else a probe solve.
	callMS := func(kind string) (ms float64, stages []obs.Stage, res []opResult) {
		for i, op := range ops {
			if op.kind == kind {
				ms += traced.opMS[i]
				stages = append(stages, traced.stages[i])
				res = append(res, traced.results[i])
			}
		}
		return ms, stages, res
	}
	mlMS, mlStages, _ := callMS(kindML)
	if mlStages == nil {
		mlStages, mlMS = probe("multilevel", func(rec obs.Recorder) error {
			_, err := solve(libOp{kindML, "probe", pr.h}, rec)
			return err
		})
	}
	coarsenMS, _, _ := spanSum(mlStages, named("coarsen"), "")
	uncoarsenMS, _, _ := spanSum(mlStages, func(s string) bool { return strings.HasPrefix(s, "uncoarsen-") }, "")
	m.set("multilevel.partition_ms", mlMS, "ms")
	m.set("multilevel.coarsen_ms", coarsenMS, "ms")
	m.set("multilevel.uncoarsen_ms", uncoarsenMS, "ms")

	kwMS, kwStages, kwRes := callMS(kindKWay)
	spanning := 0
	for _, r := range kwRes {
		spanning += r.spanning
	}
	if kwStages == nil {
		_, kwMS = probe("multiway", func(rec obs.Recorder) error {
			r, err := solve(libOp{kindKWay, "probe", pr.h}, rec)
			spanning = r.spanning
			return err
		})
	}
	m.set("multiway.partition_ms", kwMS, "ms")
	m.set("multiway.spanning_nets", float64(spanning), "count")

	if err := matvecProbe(main, m); err != nil {
		return err
	}
	if err := hypergraphProbe(cfg, pr.h, m); err != nil {
		return err
	}
	warmMS, err := repeatMS(func() error {
		r, err := portfolio.WarmStart(pr.h, pr.base.NetOrder, pr.base.BestRank, pr.delta, portfolio.WarmOptions{})
		if err == nil {
			err = checkBipartition(r.H, r.Partition, r.Metrics)
		}
		return err
	})
	t.check("probe warm-start", err)
	m.set("portfolio.warm_start_ms", warmMS, "ms")
	return journalProbe(cfg, m)
}

// matvecProbe times the IG Laplacian matvec y = Q'x on h — the kernel
// every Lanczos step applies — and reports its bytes moved, computed
// from the array sizes: values and column indices once per stored
// entry, the row pointers, one read of x and one write of y.
func matvecProbe(h *hypergraph.Hypergraph, m metrics) error {
	q := sparse.Laplacian(netmodel.IntersectionGraph(h, netmodel.IGOptions{}))
	n, nnz := q.N(), q.NNZ()
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	ms, err := repeatMS(func() error { q.MulVec(y, x); return nil })
	if err != nil {
		return err
	}
	m.set("sparse.matvec_ns_per_nnz", ms*1e6/float64(nnz), "ns")
	m.set("sparse.matvec_bytes", float64(nnz*(8+8)+(n+1)*8+2*n*8), "B")
	return nil
}

// hypergraphProbe times parsing the probe netlist from its .hgr file and
// computing its canonical bytes, the two hypergraph steps every igpartd
// submission pays before the cache lookup.
func hypergraphProbe(cfg config, h *hypergraph.Hypergraph, m metrics) error {
	path := filepath.Join(cfg.work, "probe.hgr")
	if err := hypergraph.SaveFile(path, h); err != nil {
		return err
	}
	readMS, err := repeatMS(func() error { _, err := hypergraph.LoadFile(path); return err })
	if err != nil {
		return err
	}
	canonMS, err := repeatMS(func() error { h.CanonicalBytes(); return nil })
	if err != nil {
		return err
	}
	m.set("hypergraph.read_ms", readMS, "ms")
	m.set("hypergraph.canonical_ms", canonMS, "ms")
	return nil
}

// journalProbe times a coordinator journal's durable path on a fresh
// file: open, one fsync'd accept record, one fsync'd completion, close.
func journalProbe(cfg config, m metrics) error {
	dir := filepath.Join(cfg.work, "journal-probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body := json.RawMessage(`{"path":"probe.hgr"}`)
	i := 0
	ms, err := repeatMS(func() error {
		i++
		j, _, err := cluster.OpenJournal(filepath.Join(dir, fmt.Sprintf("j%d.jsonl", i)))
		if err != nil {
			return err
		}
		id := fmt.Sprintf("cjob-%d", i)
		if err := j.Accept(id, "", "key", body); err != nil {
			j.Close()
			return err
		}
		if err := j.Complete(id, "done"); err != nil {
			j.Close()
			return err
		}
		return j.Close()
	})
	if err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	m.set("cluster.journal_fsync_ms", ms, "ms")
	return nil
}

// traceLibrary is the traced run of a library workload: the in-process
// layers on the workload's calls, then the serving layers on a short
// serve probe.
func traceLibrary(cfg config, ops []libOp, m metrics, t *tally) error {
	pr, err := newProbeInputs(cfg.seed)
	if err != nil {
		return err
	}
	main := ops[0].h
	for _, op := range ops {
		if op.h.NumNets() > main.NumNets() {
			main = op.h
		}
	}
	if err := libraryLayers(cfg, ops, main, pr, m, t); err != nil {
		return err
	}
	return serveLayers(cfg, m, t)
}
