package hypergraph

import (
	"bytes"
	"strings"
	"testing"
)

// The fuzz targets assert the parsers never panic and that anything they
// accept is internally consistent and round-trips. `go test` runs the seed
// corpus; `go test -fuzz=FuzzReadHGR ./internal/hypergraph` explores.

func FuzzReadHGR(f *testing.F) {
	f.Add("2 3\n1 2\n2 3\n")
	f.Add("% c\n1 2 10\n1 2\n3\n4\n")
	f.Add("0 0\n")
	f.Add("1 1\n1\n")
	f.Add("2 3 10\n1\n2 3\n1\n1\n1\n")
	f.Fuzz(func(t *testing.T, in string) {
		h, err := ReadHGR(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("accepted inconsistent netlist: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteHGR(&buf, h); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		h2, err := ReadHGR(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if h2.NumModules() != h.NumModules() || h2.NumNets() != h.NumNets() || h2.NumPins() != h.NumPins() {
			t.Fatal("round trip changed sizes")
		}
	})
}

func FuzzReadNetlist(f *testing.F) {
	f.Add("module a\nnet n : a b\n")
	f.Add("net x : p q r\nmodule p 4\n")
	f.Add("# only a comment\n")
	f.Fuzz(func(t *testing.T, in string) {
		h, err := ReadNetlist(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("accepted inconsistent netlist: %v", err)
		}
	})
}

// FuzzBookshelfRoundTrip drives the writer side: arbitrary
// builder-constructed netlists must survive WriteBookshelf→ReadBookshelf
// exactly — same shape, same pins per net, same names and weights. The
// builder sorts and dedups pins and the writer names unnamed entities
// "m<v>"/"n<e>", so equality is strict, not merely size-preserving.
func FuzzBookshelfRoundTrip(f *testing.F) {
	f.Add(uint8(3), []byte{2, 0, 1, 3, 0, 1, 2})
	f.Add(uint8(1), []byte{})
	f.Add(uint8(7), []byte{5, 6, 6, 1, 2, 3, 0, 2, 4, 5})
	f.Fuzz(func(t *testing.T, nMod uint8, data []byte) {
		n := int(nMod)%24 + 1
		b := NewBuilder().SetNumModules(n)
		// Decode data as a stream of nets: one size byte, then that many
		// pin bytes (each mod n). Degenerate nets are fine — the builder
		// dedups pins and the format allows single-pin nets.
		for i := 0; i < len(data); {
			size := int(data[i])%6 + 1
			i++
			pins := make([]int, 0, size)
			for j := 0; j < size && i < len(data); j++ {
				pins = append(pins, int(data[i])%n)
				i++
			}
			if len(pins) == 0 {
				break
			}
			b.AddNet(pins...)
		}
		h := b.Build()

		var nb, eb bytes.Buffer
		if err := WriteBookshelf(&nb, &eb, h); err != nil {
			t.Fatalf("write failed: %v", err)
		}
		h2, err := ReadBookshelf(&nb, &eb)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if h2.NumModules() != h.NumModules() || h2.NumNets() != h.NumNets() || h2.NumPins() != h.NumPins() {
			t.Fatalf("shape changed: %d/%d/%d -> %d/%d/%d",
				h.NumModules(), h.NumNets(), h.NumPins(),
				h2.NumModules(), h2.NumNets(), h2.NumPins())
		}
		for v := 0; v < h.NumModules(); v++ {
			if h2.ModuleName(v) != h.ModuleName(v) {
				t.Fatalf("module %d name %q -> %q", v, h.ModuleName(v), h2.ModuleName(v))
			}
			if h2.ModuleWeight(v) != h.ModuleWeight(v) {
				t.Fatalf("module %d weight %d -> %d", v, h.ModuleWeight(v), h2.ModuleWeight(v))
			}
		}
		for e := 0; e < h.NumNets(); e++ {
			if h2.NetName(e) != h.NetName(e) {
				t.Fatalf("net %d name %q -> %q", e, h.NetName(e), h2.NetName(e))
			}
			p1, p2 := h.Pins(e), h2.Pins(e)
			if len(p1) != len(p2) {
				t.Fatalf("net %d degree %d -> %d", e, len(p1), len(p2))
			}
			for k := range p1 {
				if p1[k] != p2[k] {
					t.Fatalf("net %d pins %v -> %v", e, p1, p2)
				}
			}
		}
	})
}

func FuzzReadBookshelf(f *testing.F) {
	f.Add("UCLA nodes 1.0\nNumNodes : 2\na 1 1\nb 2 2\n",
		"UCLA nets 1.0\nNumNets : 1\nNetDegree : 2 n\n a I\n b O\n")
	f.Add("a 1 1\n", "NetDegree : 1\n a\n")
	f.Add("", "")
	f.Fuzz(func(t *testing.T, nodes, nets string) {
		h, err := ReadBookshelf(strings.NewReader(nodes), strings.NewReader(nets))
		if err != nil {
			return
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("accepted inconsistent netlist: %v", err)
		}
		var nb, eb bytes.Buffer
		if err := WriteBookshelf(&nb, &eb, h); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		h2, err := ReadBookshelf(&nb, &eb)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if h2.NumPins() != h.NumPins() {
			t.Fatal("round trip changed pin count")
		}
	})
}

// FuzzCanonicalFormats holds the content-address property on arbitrary
// netlists: the .hgr, named and Bookshelf round trips of one netlist all
// have its canonical bytes. Nets are decoded from data as in
// FuzzBookshelfRoundTrip.
func FuzzCanonicalFormats(f *testing.F) {
	f.Add(uint8(3), []byte{2, 0, 1, 3, 0, 1, 2})
	f.Add(uint8(1), []byte{})
	f.Add(uint8(9), []byte{5, 6, 6, 1, 2, 3, 0, 2, 4, 5})
	f.Fuzz(func(t *testing.T, nMod uint8, data []byte) {
		n := int(nMod)%24 + 1
		b := NewBuilder().SetNumModules(n)
		for i := 0; i < len(data); {
			size := int(data[i])%6 + 1
			i++
			pins := make([]int, 0, size)
			for j := 0; j < size && i < len(data); j++ {
				pins = append(pins, int(data[i])%n)
				i++
			}
			if len(pins) == 0 {
				break
			}
			b.AddNet(pins...)
		}
		h := b.Build()
		want := h.CanonicalBytes()
		for format, got := range formatRoundTrips(t, h) {
			if !bytes.Equal(got.CanonicalBytes(), want) {
				t.Fatalf("%s round trip changed the canonical bytes", format)
			}
		}
	})
}
