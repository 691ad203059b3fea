package core

import (
	"math/rand"
	"testing"

	"igpart/internal/bipartite"
	"igpart/internal/hypergraph"
	"igpart/internal/partition"
)

// edgeCaseCircuit draws a random netlist that includes 1-pin nets and
// modules in no net, the shapes the kept counts must get right.
func edgeCaseCircuit(rng *rand.Rand) *hypergraph.Hypergraph {
	n := 4 + rng.Intn(60)
	b := hypergraph.NewBuilder().SetNumModules(n)
	nets := 2 + rng.Intn(2*n)
	for e := 0; e < nets; e++ {
		size := 1 + rng.Intn(4)
		if rng.Intn(5) == 0 {
			size = 1
		}
		pins := make([]int, size)
		for i := range pins {
			pins[i] = rng.Intn(n - 2) // the last two modules stay unconnected
		}
		b.AddNet(pins...)
	}
	return b.Build()
}

// checkCounts holds the incremental completer against from-scratch
// oracles: a fresh recount of the same winner sets must agree on every
// count, the coloring must be the one the winner sets imply, and both
// bulk options must score exactly what partition.Evaluate reports for
// the materialized partitions.
func checkCounts(t *testing.T, h *hypergraph.Hypergraph, cons *constraints, comp *completer, sets bipartite.Sets, rank int) {
	t.Helper()
	fresh := newCompleter(h, cons)
	fresh.recount(sets)
	if comp.nU != fresh.nU || comp.nW != fresh.nW || comp.cutToU != fresh.cutToU || comp.cutToW != fresh.cutToW {
		t.Fatalf("rank %d: kept nU=%d nW=%d cutToU=%d cutToW=%d, recount %d %d %d %d", rank,
			comp.nU, comp.nW, comp.cutToU, comp.cutToW, fresh.nU, fresh.nW, fresh.cutToU, fresh.cutToW)
	}
	sides := make([]partition.Side, h.NumModules())
	assigned := make([]bool, h.NumModules())
	assignWinners(h, sets, sides, assigned)
	for v := range comp.assigned {
		want := uint8(0)
		switch {
		case cons != nil && cons.fixed != nil && cons.fixed[v] != 0:
			want = cons.fixed[v]
		case assigned[v] && sides[v] == sideU:
			want = 1
		case assigned[v]:
			want = 2
		}
		if comp.assigned[v] != want || fresh.assigned[v] != want {
			t.Fatalf("rank %d: module %d colored %d (recount %d), want %d", rank, v, comp.assigned[v], fresh.assigned[v], want)
		}
	}
	for e := range comp.netU {
		if comp.netU[e] != fresh.netU[e] || comp.netW[e] != fresh.netW[e] {
			t.Fatalf("rank %d: net %d counts U=%d W=%d, recount %d %d", rank, e, comp.netU[e], comp.netW[e], fresh.netU[e], fresh.netW[e])
		}
	}
	metU, metW := comp.bulkOptions()
	for _, opt := range []struct {
		side partition.Side
		met  partition.Metrics
	}{{sideU, metU}, {sideW, metW}} {
		if got := partition.Evaluate(h, comp.materialize(opt.side)); got != opt.met {
			t.Fatalf("rank %d: bulk option %v scored %v, partition.Evaluate says %v", rank, opt.side, opt.met, got)
		}
	}
}

// TestCompleterCountsMatchRecount sweeps random netlists — with 1-pin
// nets, unconnected modules and, on every other trial, FixedSides pins —
// through the incremental matcher and completer exactly as sweepShard
// does, checking the kept counts at every split.
func TestCompleterCountsMatchRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		h := edgeCaseCircuit(rng)
		var opts Options
		if trial%2 == 1 {
			opts.FixedSides = make([]int8, h.NumModules())
			for v := range opts.FixedSides {
				opts.FixedSides[v] = int8(rng.Intn(6)) - 1
				if opts.FixedSides[v] > 1 {
					opts.FixedSides[v] = -1
				}
			}
		}
		cons, err := newConstraints(opts, h.NumModules())
		if err != nil {
			t.Fatal(err)
		}
		adj := IGAdjacency(h)
		order := rng.Perm(h.NumNets())
		lo := 1 + rng.Intn(h.NumNets()-1)
		inR := make([]bool, h.NumNets())
		for _, e := range order[:lo-1] {
			inR[e] = true
		}
		m := bipartite.NewMatcherAt(adj, inR)
		m.TrackClasses()
		comp := newCompleter(h, cons)
		for rank := lo; rank < h.NumNets(); rank++ {
			m.MoveToR(order[rank-1])
			changes := m.Classify()
			sets := m.Winners()
			if rank == lo {
				comp.recount(sets)
			} else {
				comp.apply(changes)
			}
			checkCounts(t, h, cons, comp, sets, rank)
		}
	}
}
