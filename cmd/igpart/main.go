// Command igpart partitions a netlist file with a chosen algorithm and
// prints the resulting metrics (and optionally the assignment).
//
// Usage:
//
//	igpart -in design.hgr [-algo igmatch|multilevel|portfolio|igvote|eig1|rcut|kl|refined|condensed|multiway|kway|kway-spectral]
//	       [-levels 3] [-cratio 0.9] [-starts 10] [-seed 1] [-p 0] [-assign] [-stats]
//	       [-k 4] [-eps 0.03] [-fix design.fix]
//	       [-reorth auto|full|selective] [-matvec-p 0] [-candidates 0]
//	       [-portfolio-budget 30s] [-portfolio-accept 0]
//	       [-trace] [-metrics] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The input format is selected by extension: ".hgr" for the hMETIS-style
// format, anything else for the named module/net format.
//
// -trace prints the per-stage timing tree of the run (for igmatch, the
// full pipeline breakdown: IG build, Laplacian assembly, eigensolve
// cycles, sweep shards). -metrics dumps the run's counter/gauge/timer
// registry. -cpuprofile / -memprofile write pprof profiles for
// `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"igpart"
	"igpart/internal/fm"
	"igpart/internal/hypergraph"
)

func main() {
	var (
		in     = flag.String("in", "", "input netlist path (.hgr or named format)")
		nodes  = flag.String("nodes", "", "Bookshelf .nodes path (use with -nets instead of -in)")
		nets   = flag.String("nets", "", "Bookshelf .nets path (use with -nodes instead of -in)")
		algo   = flag.String("algo", "igmatch", "algorithm: igmatch, multilevel, portfolio, igvote, eig1, rcut, kl, refined, condensed, multiway, kway, kway-spectral")
		k      = flag.Int("k", 4, "part count for -algo multiway/kway/kway-spectral")
		eps    = flag.Float64("eps", 0, "imbalance budget for -algo kway/kway-spectral: each part holds at most ceil((1+eps)*n/k) modules (0 = perfect balance)")
		levels = flag.Int("levels", 3, "V-cycle depth for -algo multilevel (1 = flat igmatch)")
		cratio = flag.Float64("cratio", 0.9, "largest acceptable per-round net shrink factor for -algo multilevel")
		starts = flag.Int("starts", 10, "random starts for rcut")
		par    = flag.Int("p", 0, "igmatch sweep parallelism: shards swept concurrently (0 = GOMAXPROCS, 1 = serial; results identical)")
		reorth = flag.String("reorth", "", "Lanczos reorthogonalization: auto (default; selective above "+
			"the size cutoff), full, selective")
		matvecP    = flag.Int("matvec-p", 0, "eigensolver matvec workers (0 = auto, 1 = serial; results bit-identical)")
		candidates = flag.Int("candidates", 0, "for -algo igmatch on huge netlists: complete only this many evenly spaced splits instead of the full sweep (0 = full sweep)")
		seed       = flag.Int64("seed", 1, "seed for randomized algorithms")
		budget     = flag.Duration("portfolio-budget", 0, "for -algo portfolio: race deadline; losers are cancelled and the best finished result wins (0 = wait for all)")
		accept     = flag.Float64("portfolio-accept", 0, "for -algo portfolio: acceptance ratio-cut bound — the first contender at or under it wins immediately (0 = best of lineup)")
		assign     = flag.Bool("assign", false, "print the per-module side assignment")
		stats      = flag.Bool("stats", false, "print netlist statistics before partitioning")
		fixIn      = flag.String("fix", "", "hMETIS .fix file pinning modules to sides; applied with FM refinement after the chosen algorithm")
		trace      = flag.Bool("trace", false, "print the per-stage timing tree after the run")
		metrics    = flag.Bool("metrics", false, "print the run's metrics registry (counters/gauges/timers)")
		cpuProf    = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()
	reorthMode, err := igpart.ParseReorthMode(*reorth)
	if err != nil {
		fatal(err)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}
	var tr *igpart.Trace
	var rec igpart.Recorder // nil when tracing is off
	if *trace || *metrics {
		tr = igpart.NewTrace("igpart")
		rec = tr
	}
	// report prints whatever -trace/-metrics asked for; deferred calls
	// run before the profile writers above.
	report := func() {
		if tr == nil {
			return
		}
		tr.End()
		if *trace {
			fmt.Print(tr.String())
		}
		if *metrics {
			fmt.Print(tr.Metrics().Snapshot().String())
		}
	}
	defer report()
	var h *igpart.Netlist
	switch {
	case *in != "":
		h, err = igpart.Load(*in)
	case *nodes != "" && *nets != "":
		h, err = igpart.LoadBookshelf(*nodes, *nets)
	default:
		fmt.Fprintln(os.Stderr, "igpart: need -in, or -nodes with -nets")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	if *stats {
		fmt.Println(hypergraph.ComputeStats(h))
	}

	// For igmatch the recorder threads through the whole pipeline; the
	// other algorithms get a single span covering their run.
	span := func(name string) func() {
		if rec == nil {
			return func() {}
		}
		sp := rec.StartSpan(name)
		return sp.End
	}

	var res igpart.Result
	switch *algo {
	case "igmatch":
		igOpts := igpart.IGMatchOptions{
			Parallelism: *par, Reorth: reorthMode, MatvecParallelism: *matvecP, Rec: rec,
		}
		var r igpart.IGMatchResult
		if *candidates > 0 {
			r, err = igpart.IGMatchCandidates(h, *candidates, igOpts)
		} else {
			r, err = igpart.IGMatch(h, igOpts)
		}
		if err != nil {
			fatal(err)
		}
		res = r.Result
		fmt.Printf("lambda2=%.6g split=%d/%d matching-bound=%d\n",
			r.Lambda2, r.BestRank, h.NumNets(), r.MatchingBound)
	case "multilevel":
		r, err := igpart.MultilevelIGMatch(h, igpart.MultilevelOptions{
			Levels: *levels, CoarseningRatio: *cratio, Parallelism: *par,
			Reorth: reorthMode, MatvecParallelism: *matvecP, Rec: rec,
		})
		if err != nil {
			fatal(err)
		}
		res = r.Result
		fmt.Printf("levels=%d coarsest-nets=%d/%d coarsest-on-input=%v\n",
			r.Levels, r.CoarsestNets, h.NumNets(), r.CoarsestOnInput)
	case "portfolio":
		r, err := igpart.Portfolio(h, igpart.PortfolioOptions{
			Budget: *budget, Accept: *accept, Seed: *seed,
			Parallelism: *par, Rec: rec,
		})
		if err != nil {
			fatal(err)
		}
		res = igpart.Result{Partition: r.Partition, Metrics: r.Metrics}
		fmt.Printf("features: %s\n", r.Features)
		for _, c := range r.Contenders {
			status := "finished"
			switch {
			case c.Cancelled:
				status = "cancelled"
			case c.Err != nil:
				status = "failed: " + c.Err.Error()
			}
			fmt.Printf("contender %-14s %-9s wall=%v ratio=%.6g\n", c.Alg, status, c.Wall.Round(time.Microsecond), c.Metrics.RatioCut)
		}
		fmt.Printf("winner=%s accepted=%v\n", r.Winner, r.Accepted)
	case "igvote":
		end := span("igvote")
		res, err = igpart.IGVote(h)
		end()
	case "eig1":
		end := span("eig1")
		res, err = igpart.EIG1(h)
		end()
	case "rcut":
		end := span("rcut")
		res, err = igpart.RCut(h, *starts, *seed)
		end()
	case "kl":
		end := span("kl")
		res, err = igpart.KL(h, *seed)
		end()
	case "refined":
		end := span("refined")
		res, err = igpart.Refined(h)
		end()
	case "condensed":
		end := span("condensed")
		res, err = igpart.Condensed(h)
		end()
	case "multiway":
		end := span("multiway")
		mw, err := igpart.KWay(h, *k, igpart.KWayOptions{Eps: igpart.EpsUnbounded})
		end()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("multiway: k=%d sizes=%v spanning=%d connectivity=%d ratio=%.5g\n",
			mw.K, mw.PartSizesSorted(), mw.SpanningNets, mw.Connectivity, mw.RatioValue)
		if *assign {
			for v := 0; v < h.NumModules(); v++ {
				fmt.Printf("%s %d\n", h.ModuleName(v), mw.Part[v])
			}
		}
		return
	case "kway", "kway-spectral":
		// Unlike the bipartition algorithms, -fix threads into the engine
		// here: pins constrain every bisection rather than being patched in
		// by FM afterwards.
		kwOpts := igpart.KWayOptions{
			Eps: *eps, Spectral: *algo == "kway-spectral", Candidates: *candidates,
			Seed: *seed, Parallelism: *par, Reorth: reorthMode,
			MatvecParallelism: *matvecP, Rec: rec,
		}
		if *fixIn != "" {
			fix, err := hypergraph.LoadFix(*fixIn, h.NumModules(), *k)
			if err != nil {
				fatal(err)
			}
			kwOpts.Fixed = fix.Part
		}
		end := span(*algo)
		mw, err := igpart.KWay(h, *k, kwOpts)
		end()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: k=%d eps=%g cap=%d sizes=%v spanning=%d connectivity=%d ratio=%.5g\n",
			*algo, mw.K, *eps, mw.Cap, mw.PartSizesSorted(), mw.SpanningNets, mw.Connectivity, mw.RatioValue)
		if *assign {
			for v := 0; v < h.NumModules(); v++ {
				fmt.Printf("%s %d\n", h.ModuleName(v), mw.Part[v])
			}
		}
		return
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}
	if err != nil {
		fatal(err)
	}
	if *fixIn != "" {
		fix, err := hypergraph.LoadFix(*fixIn, h.NumModules(), 2)
		if err != nil {
			fatal(err)
		}
		for v, part := range fix.Part {
			if part == 0 {
				res.Partition.Set(v, igpart.U)
			} else if part == 1 {
				res.Partition.Set(v, igpart.W)
			}
		}
		met, _, err := fm.RefinePartition(h, res.Partition, fm.Options{Fixed: fix.Mask()})
		if err != nil {
			fatal(err)
		}
		res.Metrics = met
		fmt.Printf("applied %d pinned modules from %s\n", fix.NumFixed(), *fixIn)
	}
	fmt.Printf("%s: %v\n", *algo, res.Metrics)
	if *assign {
		for v := 0; v < h.NumModules(); v++ {
			fmt.Printf("%s %v\n", h.ModuleName(v), res.Partition.Side(v))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "igpart:", err)
	os.Exit(1)
}
