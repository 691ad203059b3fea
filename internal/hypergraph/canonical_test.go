package hypergraph

import (
	"bytes"
	"math/rand"
	"testing"
)

// buildPermuted assembles the same set of nets under a net-order
// permutation and per-net pin shuffles driven by rng.
func buildPermuted(t *testing.T, nets [][]int, numModules int, rng *rand.Rand) *Hypergraph {
	t.Helper()
	order := rng.Perm(len(nets))
	b := NewBuilder().SetNumModules(numModules)
	for _, i := range order {
		pins := append([]int(nil), nets[i]...)
		rng.Shuffle(len(pins), func(a, c int) { pins[a], pins[c] = pins[c], pins[a] })
		b.AddNet(pins...)
	}
	return b.Build()
}

func TestCanonicalBytesInvariance(t *testing.T) {
	nets := [][]int{
		{0, 1, 2},
		{2, 3},
		{1, 4, 5, 6},
		{0, 6},
		{3, 4},
		{5, 7, 8},
		{2, 3}, // duplicate net: the multiset must be preserved
	}
	ref := buildPermuted(t, nets, 9, rand.New(rand.NewSource(1)))
	want := ref.CanonicalBytes()
	for seed := int64(2); seed < 12; seed++ {
		got := buildPermuted(t, nets, 9, rand.New(rand.NewSource(seed))).CanonicalBytes()
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: canonical bytes differ under net/pin reordering", seed)
		}
	}
}

func TestCanonicalBytesDistinguishesStructure(t *testing.T) {
	base := func() *Builder {
		b := NewBuilder()
		b.AddNet(0, 1, 2)
		b.AddNet(2, 3)
		return b
	}
	ref := base().Build().CanonicalBytes()

	// A changed pin set must change the bytes.
	b := NewBuilder()
	b.AddNet(0, 1, 3)
	b.AddNet(2, 3)
	if bytes.Equal(b.Build().CanonicalBytes(), ref) {
		t.Fatal("different pin sets produced equal canonical bytes")
	}

	// An extra isolated module must change the bytes.
	if bytes.Equal(base().SetNumModules(5).Build().CanonicalBytes(), ref) {
		t.Fatal("different module counts produced equal canonical bytes")
	}

	// Dropping the duplicate of a repeated net must change the bytes.
	b = base()
	b.AddNet(2, 3)
	dup := b.Build().CanonicalBytes()
	if bytes.Equal(dup, ref) {
		t.Fatal("net multiplicity ignored by canonical bytes")
	}

	// Area weights must change the bytes.
	if bytes.Equal(base().SetWeight(1, 4).Build().CanonicalBytes(), ref) {
		t.Fatal("module weights ignored by canonical bytes")
	}
}

func TestCanonicalBytesIgnoresNames(t *testing.T) {
	plain := NewBuilder()
	plain.AddNet(0, 1)
	plain.AddNet(1, 2)

	named := NewBuilder()
	named.NameModule(0, "alu").NameModule(2, "rom")
	named.AddNamedNet("clk", 0, 1)
	named.AddNamedNet("rst", 1, 2)

	if !bytes.Equal(plain.Build().CanonicalBytes(), named.Build().CanonicalBytes()) {
		t.Fatal("names changed the canonical bytes; they never affect partitioning")
	}
}

// formatRoundTrips writes h in every supported text format and reads it
// back: .hgr, the named NET format, and a Bookshelf pair (which gives
// every module an explicit unit area).
func formatRoundTrips(t *testing.T, h *Hypergraph) map[string]*Hypergraph {
	t.Helper()
	out := make(map[string]*Hypergraph, 3)
	var hb, nb, nodes, nets bytes.Buffer
	if err := WriteHGR(&hb, h); err != nil {
		t.Fatal(err)
	}
	if err := WriteNetlist(&nb, h); err != nil {
		t.Fatal(err)
	}
	if err := WriteBookshelf(&nodes, &nets, h); err != nil {
		t.Fatal(err)
	}
	var err error
	if out["hgr"], err = ReadHGR(&hb); err != nil {
		t.Fatalf("hgr: %v", err)
	}
	if out["named"], err = ReadNetlist(&nb); err != nil {
		t.Fatalf("named: %v", err)
	}
	if out["bookshelf"], err = ReadBookshelf(&nodes, &nets); err != nil {
		t.Fatalf("bookshelf: %v", err)
	}
	return out
}

// TestCanonicalBytesFormatInvariance pins that one netlist has one
// content address whichever format it arrives in: the .hgr round trip
// carries no weights, the Bookshelf one an explicit unit area per node,
// and both must encode identically.
func TestCanonicalBytesFormatInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		b := NewBuilder().SetNumModules(n)
		for e := 0; e < 1+rng.Intn(2*n); e++ {
			pins := make([]int, 1+rng.Intn(4))
			for i := range pins {
				pins[i] = rng.Intn(n)
			}
			b.AddNet(pins...)
		}
		h := b.Build()
		want := h.CanonicalBytes()
		for format, got := range formatRoundTrips(t, h) {
			if !bytes.Equal(got.CanonicalBytes(), want) {
				t.Fatalf("trial %d: %s round trip (weighted=%v) changed the canonical bytes", trial, format, got.Weighted())
			}
		}
	}
	unit := NewBuilder().SetWeight(0, 1).SetWeight(2, 1)
	unit.AddNet(0, 1, 2)
	plain := NewBuilder()
	plain.AddNet(0, 1, 2)
	if !bytes.Equal(unit.Build().CanonicalBytes(), plain.Build().CanonicalBytes()) {
		t.Fatal("explicit unit weights encode unlike absent weights")
	}
}
