package bipartite

import (
	"math/rand"
	"testing"
)

// classesOf flattens a classification into one class per vertex.
func classesOf(n int, s Sets) []Class {
	cl := make([]Class, n)
	for _, set := range []struct {
		vs []int
		c  Class
	}{
		{s.EvenL, ClassEvenL}, {s.OddL, ClassOddL}, {s.EvenR, ClassEvenR},
		{s.OddR, ClassOddR}, {s.CoreL, ClassCoreL}, {s.CoreR, ClassCoreR},
	} {
		for _, v := range set.vs {
			cl[v] = set.c
		}
	}
	return cl
}

// checkTracked runs one Classify and holds it against the oracle: every
// class equals WinnersInto's, the reported changes are exactly the
// vertices whose class differs from prev (with the right From and To),
// and the kept winner count and matching size agree with a recount.
func checkTracked(t *testing.T, m *Matcher, prev []Class, step int) {
	t.Helper()
	changes := m.Classify()
	if err := m.CheckMatching(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	want := classesOf(m.N(), m.Winners())
	got := classesOf(m.N(), m.TrackedSets())
	reported := make(map[int32]bool, len(changes))
	for _, ch := range changes {
		if reported[ch.V] {
			t.Fatalf("step %d: vertex %d reported twice", step, ch.V)
		}
		reported[ch.V] = true
		if ch.From != prev[ch.V] || ch.To != want[ch.V] || ch.From == ch.To {
			t.Fatalf("step %d: change %+v, want %d→%d", step, ch, prev[ch.V], want[ch.V])
		}
	}
	evens := 0
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("step %d: vertex %d classified %d, WinnersInto says %d", step, v, got[v], want[v])
		}
		if prev[v] != want[v] && !reported[int32(v)] {
			t.Fatalf("step %d: vertex %d changed %d→%d unreported", step, v, prev[v], want[v])
		}
		if want[v].Even() {
			evens++
		}
	}
	if m.EvenCount() != evens {
		t.Fatalf("step %d: EvenCount %d, want %d", step, m.EvenCount(), evens)
	}
	copy(prev, want)
}

// sweepTracked moves the vertices of order to R one at a time from a
// matcher started at the split inR, classifying after every move (or
// after every second move when batch is set, so the dirty list carries
// vertices across moves).
func sweepTracked(t *testing.T, adj [][]int, inR []bool, order []int, batch bool) {
	t.Helper()
	m := NewMatcherAt(adj, inR)
	m.TrackClasses()
	prev := make([]Class, len(adj))
	for v := range prev {
		if inR[v] {
			prev[v] = ClassEvenR
		}
	}
	checkTracked(t, m, prev, -1)
	for i, v := range order {
		m.MoveToR(v)
		if batch && i%2 == 0 && i+1 < len(order) {
			continue
		}
		checkTracked(t, m, prev, i)
	}
}

// randomSweep draws a host graph, a start split and a move order of the
// remaining L vertices.
func randomSweep(rng *rand.Rand, n, e int) (adj [][]int, inR []bool, order []int) {
	adj = randomGraph(rng, n, e)
	inR = make([]bool, n)
	start := rng.Intn(n + 1)
	perm := rng.Perm(n)
	for _, v := range perm[:start] {
		inR[v] = true
	}
	return adj, inR, perm[start:]
}

// TestIncrementalClassifyMatchesWinners is the oracle property of the
// incremental classifier: over random host graphs (sparse ones leave
// isolated vertices, dense ones a frontier of nearly everything), random
// start splits and random move orders, every vertex's class equals
// WinnersInto's at every split.
func TestIncrementalClassifyMatchesWinners(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		e := rng.Intn(4*n + 1)
		adj, inR, order := randomSweep(rng, n, e)
		sweepTracked(t, adj, inR, order, trial%3 == 0)
	}
}

// TestIncrementalClassifyLargeSweep runs one full sweep on a graph big
// enough for long augmenting paths and a wide frontier.
func TestIncrementalClassifyLargeSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 400
	adj := randomGraph(rng, n, 3*n)
	sweepTracked(t, adj, make([]bool, n), rng.Perm(n), false)
}

func FuzzIncrementalClassify(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(20), false)
	f.Add(int64(2), uint8(30), uint8(5), true)
	f.Add(int64(3), uint8(1), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed int64, nv, ne uint8, batch bool) {
		n := 1 + int(nv)%64
		rng := rand.New(rand.NewSource(seed))
		adj, inR, order := randomSweep(rng, n, int(ne)*n/16)
		sweepTracked(t, adj, inR, order, batch)
	})
}

func TestTrackClassesRejectsBadHostGraphs(t *testing.T) {
	for name, adj := range map[string][][]int{
		"self-loop":  {{0, 1}, {0}},
		"asymmetric": {{1}, {}},
		"mismatched": {{1}, {2}, {0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: TrackClasses accepted the graph", name)
				}
			}()
			NewMatcher(adj).TrackClasses()
		}()
	}
}

func TestClassifyUntrackedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Classify on an untracked matcher did not panic")
		}
	}()
	NewMatcher([][]int{{1}, {0}}).Classify()
}

// TestCheckMatchingCatchesSizeDrift pins that the kept matching size is
// audited: a count that disagrees with the match pointers is an error.
func TestCheckMatchingCatchesSizeDrift(t *testing.T) {
	m := NewMatcher(buildAdj(2, [][2]int{{0, 1}}))
	m.MoveToR(1)
	if m.MatchingSize() != 1 || m.CheckMatching() != nil {
		t.Fatalf("size %d, check %v", m.MatchingSize(), m.CheckMatching())
	}
	m.size++
	if m.CheckMatching() == nil {
		t.Fatal("CheckMatching accepted a drifted matching size")
	}
}
