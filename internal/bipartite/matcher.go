// Package bipartite implements the matching machinery behind IG-Match:
// an incrementally maintained maximum matching in the bipartite conflict
// graph B(L, R, E_B) induced by a split of the intersection graph, the
// Even/Odd alternating-path construction that extracts a maximum
// independent set (the "winner" nets), and a Hopcroft–Karp reference
// implementation used as a testing oracle.
//
// The Even/Odd classes come two ways. WinnersInto classifies from scratch
// in O(n + e); it is the one-shot classifier for isolated splits and the
// oracle in tests. A sweep instead tracks the classes incrementally
// (TrackClasses, Classify in classify.go): only vertices with an E_B edge
// can be anything but trivially Even, so each split re-walks that
// frontier over E_B edges and reports the vertices whose class changed.
package bipartite

// Matcher maintains a maximum matching in the bipartite graph B(L, R, E_B)
// induced by a two-coloring of a fixed host graph: vertices start on side L
// and migrate one at a time to side R (MoveToR); an edge of the host graph
// is in E_B exactly when its endpoints are currently on opposite sides.
//
// After every move the matching is guaranteed maximum for the current B.
// Each MoveToR performs at most two augmenting-path searches, so a full
// sweep of n moves costs O(n·(n+e)) — the amortized bound of Theorem 6.
//
// A matcher may additionally track the Even/Odd classification
// incrementally (TrackClasses, classify.go): MoveToR then also keeps the
// E_B frontier, and Classify re-walks only the frontier per split instead
// of the whole graph. Untracked matchers pay nothing for it.
type Matcher struct {
	adj   [][]int // static host-graph adjacency
	inL   []bool
	match []int       // match[v] = current partner, or -1
	size  int         // matched edges, kept by MoveToR and augmentation
	augs  int         // augmenting paths applied over the matcher's lifetime
	inc   *classifier // incremental classification state; nil unless tracked

	// scratch for searches
	visited []int
	stamp   int
	parent  []int
	queue   []int
	mark    []uint8 // scratch for Winners classification
}

// NewMatcher creates a Matcher over the host graph given by adjacency lists
// (adj[v] lists the neighbors of v). All vertices start on side L, so E_B is
// empty and the matching is empty.
func NewMatcher(adj [][]int) *Matcher {
	n := len(adj)
	m := &Matcher{
		adj:     adj,
		inL:     make([]bool, n),
		match:   make([]int, n),
		visited: make([]int, n),
		parent:  make([]int, n),
	}
	for i := range m.inL {
		m.inL[i] = true
		m.match[i] = -1
	}
	return m
}

// NewMatcherAt creates a Matcher over the host graph with vertices already
// split: inR[v] true places v on side R. The matching is seeded from scratch
// with Hopcroft–Karp, so it is maximum for the initial bipartite graph and
// the incremental MoveToR invariant holds from there. This is the shard
// bootstrap of the parallel sweep: a NewMatcherAt at rank k is equivalent to
// a NewMatcher after k MoveToR calls — same matching size and, because the
// Dulmage–Mendelsohn decomposition is canonical over maximum matchings, the
// same Even/Odd/Core classification.
func NewMatcherAt(adj [][]int, inR []bool) *Matcher {
	if len(inR) != len(adj) {
		panic("bipartite: NewMatcherAt split length mismatch")
	}
	n := len(adj)
	m := &Matcher{
		adj:     adj,
		inL:     make([]bool, n),
		visited: make([]int, n),
		parent:  make([]int, n),
	}
	for i := range m.inL {
		m.inL[i] = !inR[i]
	}
	m.augs, m.match = HopcroftKarp(adj, m.inL)
	m.size = m.augs
	return m
}

// Augmentations returns the number of augmenting paths applied over the
// matcher's lifetime — the work metric of the incremental maintenance.
// A Hopcroft–Karp bootstrap (NewMatcherAt) counts one per seeded
// matching edge, so the value is comparable across the serial and
// sharded sweep engines.
func (m *Matcher) Augmentations() int { return m.augs }

// N returns the number of vertices in the host graph.
func (m *Matcher) N() int { return len(m.adj) }

// InL reports whether vertex v is currently on side L.
func (m *Matcher) InL(v int) bool { return m.inL[v] }

// Match returns v's matching partner, or −1 when v is unmatched.
func (m *Matcher) Match(v int) int { return m.match[v] }

// MatchingSize returns the current (maximum) matching size, which equals
// the minimum vertex cover size of B by König's theorem. It is a kept
// count, O(1); CheckMatching verifies it against the match pointers.
func (m *Matcher) MatchingSize() int { return m.size }

// MoveToR migrates vertex v from L to R, repairing the matching to be
// maximum for the new bipartite graph. It follows the Phase I pseudocode of
// Figure 5: unmatch v (freeing its former partner u in R), try one
// augmentation from u, then reinsert v on side R and try one augmentation
// from v.
func (m *Matcher) MoveToR(v int) {
	if !m.inL[v] {
		panic("bipartite: MoveToR on a vertex already in R")
	}
	u := m.match[v]
	if u >= 0 {
		m.match[v] = -1
		m.match[u] = -1
		m.size--
	}
	m.inL[v] = false
	if m.inc != nil {
		m.inc.move(m, v)
	}
	if u >= 0 {
		m.augmentFromR(u)
	}
	m.augmentFromR(v)
}

// augmentFromR searches for an augmenting path starting at the free vertex
// r ∈ R using BFS over alternating edges (non-matching R→L, matching L→R)
// and applies it if found. Returns whether the matching grew.
func (m *Matcher) augmentFromR(r int) bool {
	if m.inL[r] || m.match[r] >= 0 {
		return false
	}
	m.stamp++
	m.queue = m.queue[:0]
	m.queue = append(m.queue, r)
	m.visited[r] = m.stamp
	for qi := 0; qi < len(m.queue); qi++ {
		y := m.queue[qi] // y ∈ R
		for _, x := range m.adj[y] {
			if !m.inL[x] || m.visited[x] == m.stamp {
				continue // edge not in E_B, or x already reached
			}
			m.visited[x] = m.stamp
			m.parent[x] = y
			if m.match[x] < 0 {
				// Augment: flip the path back to r.
				m.augs++
				m.size++
				for {
					py := m.parent[x]
					next := m.match[py]
					m.match[x] = py
					m.match[py] = x
					if next < 0 {
						return true
					}
					x = next
				}
			}
			y2 := m.match[x]
			if m.visited[y2] != m.stamp {
				m.visited[y2] = m.stamp
				m.parent[y2] = x // informational; R-vertices re-expand via queue
				m.queue = append(m.queue, y2)
			}
		}
	}
	return false
}

// Sets holds the alternating-path classification of Figure 3. Even(L) are
// L-vertices at even distance from an unmatched L-vertex (the L winners,
// containing U_L); Odd(L) are the R-vertices at odd distance on those same
// paths (losers). Even(R)/Odd(R) are symmetric. CoreL/CoreR are the
// vertices of the residual subgraph B′: matched vertices unreachable from
// any unmatched vertex, which Phase II of IG-Match resolves in bulk.
type Sets struct {
	EvenL []int // winners in L (⊇ U_L)
	OddL  []int // losers in R reached from U_L
	EvenR []int // winners in R (⊇ U_R)
	OddR  []int // losers in L reached from U_R
	CoreL []int // B′ ∩ L
	CoreR []int // B′ ∩ R
}

// Winners computes the Even/Odd/Core classification for the current split.
// The matching must be maximum (which Matcher guarantees), otherwise the
// alternating BFS could discover an augmenting path.
//
// The returned loser set Odd(L) ∪ Odd(R) is the critical set of Hasan–Liu:
// it is contained in every minimum vertex cover of B and is independent of
// which maximum matching the Matcher currently holds.
func (m *Matcher) Winners() Sets {
	var s Sets
	m.WinnersInto(&s)
	return s
}

// WinnersInto is Winners with caller-owned storage: the slices of s are
// reset and reused, so a sweep calling it once per split allocates only on
// growth. The contents of s are valid until the next call.
func (m *Matcher) WinnersInto(s *Sets) {
	n := len(m.adj)
	const (
		unseen = 0
		even   = 1
		odd    = 2
	)
	if m.mark == nil {
		m.mark = make([]uint8, n)
	}
	mark := m.mark
	for i := range mark {
		mark[i] = unseen
	}
	s.EvenL = s.EvenL[:0]
	s.OddL = s.OddL[:0]
	s.EvenR = s.EvenR[:0]
	s.OddR = s.OddR[:0]
	s.CoreL = s.CoreL[:0]
	s.CoreR = s.CoreR[:0]

	// BFS from unmatched vertices of one side across E_B; matching edges
	// pull the partner into the even set.
	sweep := func(fromL bool, evens, odds []int) ([]int, []int) {
		m.queue = m.queue[:0]
		for v := 0; v < n; v++ {
			if m.inL[v] == fromL && m.match[v] < 0 {
				mark[v] = even
				m.queue = append(m.queue, v)
				evens = append(evens, v)
			}
		}
		for qi := 0; qi < len(m.queue); qi++ {
			x := m.queue[qi] // even-side vertex
			for _, y := range m.adj[x] {
				if m.inL[y] == m.inL[x] {
					continue // not an E_B edge
				}
				if mark[y] != unseen {
					continue
				}
				mark[y] = odd
				odds = append(odds, y)
				x2 := m.match[y]
				if x2 >= 0 && mark[x2] == unseen {
					mark[x2] = even
					evens = append(evens, x2)
					m.queue = append(m.queue, x2)
				}
			}
		}
		return evens, odds
	}

	s.EvenL, s.OddL = sweep(true, s.EvenL, s.OddL)
	s.EvenR, s.OddR = sweep(false, s.EvenR, s.OddR)
	for v := 0; v < n; v++ {
		if mark[v] == unseen && m.match[v] >= 0 {
			if m.inL[v] {
				s.CoreL = append(s.CoreL, v)
			} else {
				s.CoreR = append(s.CoreR, v)
			}
		}
	}
}

// EdgesInB counts the edges currently in the bipartite graph E_B.
func (m *Matcher) EdgesInB() int {
	k := 0
	for v, nbrs := range m.adj {
		if !m.inL[v] {
			continue
		}
		for _, u := range nbrs {
			if !m.inL[u] {
				k++
			}
		}
	}
	return k
}

// CheckMatching validates internal consistency: symmetry of match pointers,
// that every matched edge crosses the split and exists in the host graph,
// and that the kept matching size counts exactly the matched edges. It is
// a testing aid.
func (m *Matcher) CheckMatching() error {
	edges := 0
	for v, p := range m.match {
		if p < 0 {
			continue
		}
		if v < p {
			edges++
		}
		if m.match[p] != v {
			return errMatch(v, p, "asymmetric match")
		}
		if m.inL[v] == m.inL[p] {
			return errMatch(v, p, "matched edge does not cross the split")
		}
		found := false
		for _, u := range m.adj[v] {
			if u == p {
				found = true
				break
			}
		}
		if !found {
			return errMatch(v, p, "matched edge not in host graph")
		}
	}
	if edges != m.size {
		return errMatch(-1, -1, "kept matching size differs from the matched edges")
	}
	return nil
}

type matchError struct {
	v, p int
	msg  string
}

func errMatch(v, p int, msg string) error { return &matchError{v, p, msg} }

func (e *matchError) Error() string {
	return "bipartite: " + e.msg
}
