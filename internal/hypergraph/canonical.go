package hypergraph

import (
	"encoding/binary"
	"slices"
	"sort"
)

// canonicalMagic versions the CanonicalBytes encoding; bump it whenever
// the byte layout changes so stale cache entries can never alias fresh
// ones.
const canonicalMagic = "igpart-canon-v2\n"

// CanonicalBytes returns a stable serialization of the netlist's
// partitioning-relevant structure: module count, module area weights
// (when any differs from 1), and the multiset of net pin sets. All-unit
// weights encode exactly like absent weights — every partitioner reads
// weights through ModuleWeight, which returns 1 for both — so a netlist
// keeps one content address whether it arrived as .hgr (no weights) or
// as Bookshelf (a unit area per node). The encoding is
// invariant to the order nets were added in and to the order pins were
// listed (pins are stored sorted and deduplicated; nets are emitted
// sorted lexicographically by their pin slices). Module indices are
// preserved; module and net names are excluded — no partitioner in this
// repository reads them.
//
// Two netlists with equal CanonicalBytes are interchangeable inputs for
// every module-partitioning entry point, which makes the hash of these
// bytes a content address for result caching (internal/service keys its
// LRU on SHA-256 of exactly this serialization). Note the guarantee is
// on module partitions: net-indexed outputs such as IGMatchResult.
// NetOrder do refer to the caller's net numbering.
func (h *Hypergraph) CanonicalBytes() []byte {
	order := make([]int, len(h.pins))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return slices.Compare(h.pins[order[a]], h.pins[order[b]]) < 0
	})

	// Uvarint fields are self-delimiting, so the concatenation below is
	// prefix-free and unambiguous.
	buf := make([]byte, 0, len(canonicalMagic)+2*h.numPins+16)
	buf = append(buf, canonicalMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(h.incident)))
	buf = binary.AppendUvarint(buf, uint64(len(h.pins)))
	if unitWeights(h.weights) {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		for _, w := range h.weights {
			buf = binary.AppendVarint(buf, int64(w))
		}
	}
	for _, e := range order {
		p := h.pins[e]
		buf = binary.AppendUvarint(buf, uint64(len(p)))
		for _, v := range p {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	return buf
}

// unitWeights reports whether every module weight is 1 (or there are
// none).
func unitWeights(ws []int) bool {
	for _, w := range ws {
		if w != 1 {
			return false
		}
	}
	return true
}
