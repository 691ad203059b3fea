package bipartite

// Incremental Even/Odd classification for the sweep. WinnersInto rebuilds
// the Dulmage–Mendelsohn classes with a BFS over every vertex and every
// host-graph edge, which is the per-split cost Theorem 6 charges. Most of
// that work is wasted on a sweep: a vertex with no E_B edge is unmatched
// (matching edges cross the split), so it is trivially Even on its own
// side, and only the frontier — vertices with at least one E_B edge — can
// hold any other class. A tracked matcher therefore keeps, under MoveToR:
//
//   - the cross-degree of every vertex (its E_B edges);
//   - each adjacency row partitioned with its E_B edges first, so a BFS
//     over E_B reads only row prefixes;
//   - the frontier set, and the vertices that moved or left it since the
//     last Classify.
//
// Classify then runs the Even/Odd BFS from the unmatched frontier vertices
// over E_B only, classifies the frontier, resets departed vertices to
// their trivial class, and reports every class change. Because the
// classification is canonical over maximum matchings, the classes equal
// WinnersInto's at every split; WinnersInto stays the one-shot classifier
// and the test oracle.

// Class is a vertex's alternating-path class at the current split (see
// Sets for the meaning of each).
type Class uint8

const (
	ClassEvenL Class = iota // L winner (⊇ U_L)
	ClassOddL               // R loser reached from U_L
	ClassEvenR              // R winner (⊇ U_R)
	ClassOddR               // L loser reached from U_R
	ClassCoreL              // B′ ∩ L
	ClassCoreR              // B′ ∩ R
)

// Even reports whether the class is a winner class.
func (c Class) Even() bool { return c == ClassEvenL || c == ClassEvenR }

// ClassChange records one vertex whose class changed in a Classify call.
type ClassChange struct {
	V        int32
	From, To Class
}

// classifier is the incremental classification state of a tracked
// matcher. The partitioned adjacency is a private copy because rows are
// permuted in place and the host graph is shared across sweep shards.
type classifier struct {
	off    []int32 // row v is nbr[off[v]:off[v+1]]
	nbr    []int32 // neighbors, E_B edges first in each row
	twin   []int32 // twin[k] is the slot of the reverse edge of slot k
	cross  []int32 // cross-degree: row v's E_B edges are its first cross[v]
	fpos   []int32 // position of v in front, or −1 off the frontier
	front  []int32 // vertices with at least one E_B edge
	dirty  []int32 // vertices moved or gone off the frontier since Classify
	class  []Class
	mark   []uint8 // BFS marks, valid on the frontier during Classify
	qL, qR []int32 // BFS queues from U_L and U_R, reused across calls
	evens  int     // vertices currently in Even(L) ∪ Even(R)

	changes []ClassChange
	visits  int64 // frontier vertices classified over the lifetime
	changed int64 // class changes reported over the lifetime
}

// TrackClasses switches on incremental classification from the current
// split. The host graph must be symmetric, without self-loops or repeated
// neighbors (IG adjacency is); TrackClasses panics otherwise. Setup is
// O(n + e) time and two int32 per adjacency entry, with no hash map. After
// it, every MoveToR updates the state in O(deg v) and Classify must be
// called to read classes.
func (m *Matcher) TrackClasses() {
	if m.inc != nil {
		return
	}
	n := len(m.adj)
	c := &classifier{
		off:   make([]int32, n+1),
		cross: make([]int32, n),
		fpos:  make([]int32, n),
		class: make([]Class, n),
		mark:  make([]uint8, n),
		evens: n,
	}
	for v, row := range m.adj {
		c.off[v+1] = c.off[v] + int32(len(row))
	}
	// Transpose the rows into the copy: visiting u in ascending order and
	// appending u to the row of each neighbor leaves every row sorted. On
	// a symmetric graph the transpose is the graph itself.
	c.nbr = make([]int32, c.off[n])
	c.twin = make([]int32, c.off[n])
	fill := c.cross // cursor scratch, zeroed again below
	for u, row := range m.adj {
		for _, w := range row {
			if w == u {
				panic("bipartite: TrackClasses on a host graph with a self-loop")
			}
			if c.off[w]+fill[w] >= c.off[w+1] {
				panic("bipartite: TrackClasses on an asymmetric host graph")
			}
			c.nbr[c.off[w]+fill[w]] = int32(u)
			fill[w]++
		}
	}
	// Reverse-edge index: u sits in row w after every smaller neighbor of
	// w, so a second ascending pass finds its slot by a cursor per row.
	clear(fill)
	for u := 0; u < n; u++ {
		for k := c.off[u]; k < c.off[u+1]; k++ {
			w := c.nbr[k]
			t := c.off[w] + fill[w]
			fill[w]++
			if c.nbr[t] != int32(u) {
				panic("bipartite: TrackClasses on an asymmetric or multi-edge host graph")
			}
			c.twin[k] = t
		}
	}
	clear(fill)
	for v := 0; v < n; v++ {
		c.fpos[v] = -1
		if !m.inL[v] {
			c.class[v] = ClassEvenR
		}
		for k := c.off[v]; k < c.off[v+1]; k++ {
			if m.inL[c.nbr[k]] != m.inL[v] {
				c.swap(c.off[v]+c.cross[v], k)
				c.cross[v]++
			}
		}
		if c.cross[v] > 0 {
			c.enter(int32(v))
		}
	}
	m.inc = c
}

// swap exchanges slots a and b of one row, keeping the reverse-edge index.
func (c *classifier) swap(a, b int32) {
	if a == b {
		return
	}
	ta, tb := c.twin[a], c.twin[b]
	c.nbr[a], c.nbr[b] = c.nbr[b], c.nbr[a]
	c.twin[a], c.twin[b] = tb, ta
	c.twin[tb] = a
	c.twin[ta] = b
}

func (c *classifier) enter(v int32) {
	c.fpos[v] = int32(len(c.front))
	c.front = append(c.front, v)
}

func (c *classifier) leave(v int32) {
	i := c.fpos[v]
	last := c.front[len(c.front)-1]
	c.front[i] = last
	c.fpos[last] = i
	c.front = c.front[:len(c.front)-1]
	c.fpos[v] = -1
	c.dirty = append(c.dirty, v)
}

// move updates the cross structure after v crossed from L to R (inL is
// already updated). Every edge at v flips its E_B membership: the reverse
// slot in each neighbor's row moves across that row's prefix boundary,
// and v's own row swaps its prefix and suffix blocks. O(deg v).
func (c *classifier) move(m *Matcher, v int) {
	for k := c.off[v]; k < c.off[v+1]; k++ {
		w := c.nbr[k]
		t := c.twin[k]
		if m.inL[w] { // v–w entered E_B
			c.swap(t, c.off[w]+c.cross[w])
			c.cross[w]++
			if c.cross[w] == 1 {
				c.enter(w)
			}
		} else { // v–w left E_B
			c.cross[w]--
			c.swap(t, c.off[w]+c.cross[w])
			if c.cross[w] == 0 {
				c.leave(w)
			}
		}
	}
	lo := c.off[v]
	deg := c.off[v+1] - lo
	a := c.cross[v]
	b := deg - a
	for i := int32(0); i < min(a, b); i++ {
		c.swap(lo+i, lo+deg-1-i)
	}
	c.cross[v] = b
	switch {
	case a == 0 && b > 0:
		c.enter(int32(v))
	case a > 0 && b == 0:
		c.leave(int32(v))
	}
	c.dirty = append(c.dirty, int32(v))
}

// Classify brings the tracked classification up to date with the current
// split and returns the vertices whose class changed since the previous
// call (the first call reports changes since TrackClasses, which starts
// every vertex in its trivial Even class). The returned slice is reused
// by the next call. Cost: O(frontier + |E_B| + moved/departed vertices).
func (m *Matcher) Classify() []ClassChange {
	c := m.inc
	if c == nil {
		panic("bipartite: Classify on an untracked matcher")
	}
	c.changes = c.changes[:0]
	// One pass marks the unmatched frontier vertices of both sides as BFS
	// seeds. Marking the R seeds before the BFS from L changes nothing: a
	// BFS from U_L reaching an unmatched R vertex would be an augmenting
	// path, and the matching is maximum.
	qL, qR := c.qL[:0], c.qR[:0]
	for _, v := range c.front {
		switch {
		case m.match[v] >= 0:
			c.mark[v] = unseen
		case m.inL[v]:
			c.mark[v] = even
			qL = append(qL, v)
		default:
			c.mark[v] = even
			qR = append(qR, v)
		}
	}
	// BFS from each side's seeds across E_B, as in WinnersInto.
	c.qL, c.qR = c.bfs(m, qL), c.bfs(m, qR)
	for _, v := range c.front {
		side := 0
		if !m.inL[v] {
			side = 1
		}
		c.set(v, classOf[c.mark[v]][side])
	}
	c.visits += int64(len(c.front))
	for _, v := range c.dirty {
		if c.fpos[v] >= 0 {
			continue // back on the frontier: classified above
		}
		if m.inL[v] {
			c.set(v, ClassEvenL)
		} else {
			c.set(v, ClassEvenR)
		}
	}
	c.dirty = c.dirty[:0]
	c.changed += int64(len(c.changes))
	return c.changes
}

// BFS marks for Classify, valid on the frontier.
const (
	unseen = iota
	even
	odd
)

// classOf maps a BFS mark and a side (0 = L, 1 = R) to the class: seeds
// and the vertices pulled in by matching edges are Even on their side,
// vertices reached across E_B are Odd (the losers of the other side's
// search), and matched vertices neither search reaches form the core.
var classOf = [3][2]Class{
	unseen: {ClassCoreL, ClassCoreR},
	even:   {ClassEvenL, ClassEvenR},
	odd:    {ClassOddR, ClassOddL},
}

// bfs runs the alternating search from the seeds in q across E_B, marking
// reached vertices odd and their matching partners even. It returns q for
// reuse.
func (c *classifier) bfs(m *Matcher, q []int32) []int32 {
	for qi := 0; qi < len(q); qi++ {
		x := q[qi]
		for _, y := range c.nbr[c.off[x] : c.off[x]+c.cross[x]] {
			if c.mark[y] != unseen {
				continue
			}
			c.mark[y] = odd
			if x2 := m.match[y]; x2 >= 0 && c.mark[x2] == unseen {
				c.mark[x2] = even
				q = append(q, int32(x2))
			}
		}
	}
	return q
}

func (c *classifier) set(v int32, to Class) {
	from := c.class[v]
	if from == to {
		return
	}
	c.class[v] = to
	if from.Even() {
		c.evens--
	}
	if to.Even() {
		c.evens++
	}
	c.changes = append(c.changes, ClassChange{V: v, From: from, To: to})
}

// EvenCount returns |Even(L)| + |Even(R)| as of the last Classify call:
// the number of winner vertices, O(1).
func (m *Matcher) EvenCount() int { return m.inc.evens }

// FrontierVisits returns the number of frontier vertices classified over
// the matcher's lifetime — the work metric of Classify, against n per
// split for WinnersInto.
func (m *Matcher) FrontierVisits() int64 { return m.inc.visits }

// ClassChanges returns the number of class changes Classify reported over
// the matcher's lifetime.
func (m *Matcher) ClassChanges() int64 { return m.inc.changed }

// TrackedSets returns the classification of the last Classify call as
// freshly allocated Sets, vertices ascending within each set. O(n).
func (m *Matcher) TrackedSets() Sets {
	var s Sets
	for v, cl := range m.inc.class {
		switch cl {
		case ClassEvenL:
			s.EvenL = append(s.EvenL, v)
		case ClassOddL:
			s.OddL = append(s.OddL, v)
		case ClassEvenR:
			s.EvenR = append(s.EvenR, v)
		case ClassOddR:
			s.OddR = append(s.OddR, v)
		case ClassCoreL:
			s.CoreL = append(s.CoreL, v)
		default:
			s.CoreR = append(s.CoreR, v)
		}
	}
	return s
}
