package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"igpart/internal/netgen"
)

// orderHash condenses a net ordering into one pinnable integer.
func orderHash(order []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range order {
		binary.LittleEndian.PutUint64(buf[:], uint64(r))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestPrim2FiedlerOrderingGolden pins the full-size Prim2 Fiedler
// ordering — the spine every IG algorithm sweeps — and requires it to be
// bit-identical at every matvec worker count. Prim2 (3029 nets) sits
// above ReorthAutoCutoff, so this is the selective-reorth + parallel
// matvec production path: any kernel edit that silently reorders ranks,
// perturbs a single matvec bit, or changes where the ω-monitor fires
// shows up here as a hash mismatch before it can corrupt a benchmark.
func TestPrim2FiedlerOrderingGolden(t *testing.T) {
	cfg, ok := netgen.ByName("Prim2")
	if !ok {
		t.Fatal("Prim2 benchmark preset missing")
	}
	h, err := netgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var base []int
	var baseL2 float64
	for _, p := range []int{1, 2, 4, 8} {
		var opts Options
		opts.Eigen.MatvecWorkers = p
		order, lambda2, err := fiedlerOrder(h, opts)
		if err != nil {
			t.Fatalf("P=%d: fiedlerOrder: %v", p, err)
		}
		if p == 1 {
			base, baseL2 = order, lambda2
			continue
		}
		if lambda2 != baseL2 {
			t.Fatalf("P=%d: λ₂ %x differs from serial %x — parallel matvec broke bit identity", p, lambda2, baseL2)
		}
		for i := range base {
			if order[i] != base[i] {
				t.Fatalf("P=%d: ordering diverges from serial at position %d: net %d vs %d", p, i, order[i], base[i])
			}
		}
	}

	const goldenHash = uint64(0x620ab32903e2f424)
	goldenHead := []int{1898, 1805, 2756, 517, 2398, 2722}
	if got := orderHash(base); got != goldenHash {
		t.Errorf("Prim2 Fiedler ordering drift: hash %#x, golden %#x (head %v)", got, goldenHash, base[:8])
	}
	for i, want := range goldenHead {
		if base[i] != want {
			t.Errorf("Prim2 ordering head drift at %d: net %d, golden %d", i, base[i], want)
		}
	}
}
