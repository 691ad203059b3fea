package igpart

import (
	"path/filepath"
	"testing"
)

// testCircuit generates a small clustered benchmark for facade tests.
func testCircuit(t *testing.T) *Netlist {
	t.Helper()
	cfg, ok := Benchmark("Prim1")
	if !ok {
		t.Fatal("Prim1 preset missing")
	}
	h, err := Generate(cfg.Scaled(0.25))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestFacadeIGMatch(t *testing.T) {
	h := testCircuit(t)
	res, err := IGMatch(h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.SizeU == 0 || res.Metrics.SizeW == 0 {
		t.Fatal("improper partition")
	}
	if res.Metrics.CutNets > res.MatchingBound {
		t.Errorf("cut %d exceeds matching bound %d", res.Metrics.CutNets, res.MatchingBound)
	}
	if got := Evaluate(h, res.Partition); got != res.Metrics {
		t.Errorf("metrics mismatch: %+v vs %+v", got, res.Metrics)
	}
	if len(res.NetOrder) != h.NumNets() {
		t.Errorf("order length %d", len(res.NetOrder))
	}
}

func TestFacadeAllAlgorithms(t *testing.T) {
	h := testCircuit(t)
	run := func(name string, f func() (Result, error)) {
		t.Run(name, func(t *testing.T) {
			res, err := f()
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.SizeU == 0 || res.Metrics.SizeW == 0 {
				t.Error("improper partition")
			}
			if got := Evaluate(h, res.Partition); got != res.Metrics {
				t.Errorf("metrics mismatch: %+v vs %+v", got, res.Metrics)
			}
		})
	}
	run("IGVote", func() (Result, error) { return IGVote(h) })
	run("EIG1", func() (Result, error) { return EIG1(h) })
	run("RCut", func() (Result, error) { return RCut(h, 3, 1) })
	run("KL", func() (Result, error) { return KL(h, 1) })
	run("Refined", func() (Result, error) { return Refined(h) })
	run("Condensed", func() (Result, error) { return Condensed(h) })
	run("IGDiam", func() (Result, error) { return IGDiam(h) })
	run("Anneal", func() (Result, error) { return Anneal(h, 1) })
	run("MinCut", func() (Result, error) { return MinCut(h) })
}

func TestFacadeMinNetCutBetween(t *testing.T) {
	h := testCircuit(t)
	res, flow, err := MinNetCutBetween(h, 0, h.NumModules()-1)
	if err != nil {
		t.Fatal(err)
	}
	if flow != res.Metrics.CutNets {
		t.Errorf("flow %d != cut %d", flow, res.Metrics.CutNets)
	}
	if res.Partition.Side(0) == res.Partition.Side(h.NumModules()-1) {
		t.Error("endpoints not separated")
	}
	cutSeen := false
	for e := 0; e < h.NumNets() && !cutSeen; e++ {
		cutSeen = IsNetCut(h, res.Partition, e)
	}
	if !cutSeen && flow > 0 {
		t.Error("IsNetCut found no cut net despite positive flow")
	}
}

func TestFacadeIGMatchOptions(t *testing.T) {
	h := testCircuit(t)
	for _, scheme := range []WeightScheme{SchemePaper, SchemeUnit, SchemeOverlap, SchemeMinSize} {
		res, err := IGMatch(h, IGMatchOptions{Scheme: scheme})
		if err != nil {
			t.Fatalf("scheme %v: %v", scheme, err)
		}
		if res.Metrics.SizeU == 0 || res.Metrics.SizeW == 0 {
			t.Errorf("scheme %v: improper partition", scheme)
		}
	}
	if _, err := IGMatch(h, IGMatchOptions{Threshold: 4, RecursionDepth: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeBuilderAndIO(t *testing.T) {
	b := NewBuilder()
	b.AddNamedNet("clk", 0, 1, 2, 3)
	b.AddNamedNet("d0", 0, 1)
	b.AddNamedNet("d1", 2, 3)
	h := b.Build()
	path := filepath.Join(t.TempDir(), "tiny.hgr")
	if err := Save(path, h); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNets() != 3 || got.NumModules() != 4 {
		t.Errorf("reload: %d nets %d modules", got.NumNets(), got.NumModules())
	}
}

func TestFacadeBenchmarkRegistry(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 9 {
		t.Fatalf("%d benchmark presets", len(names))
	}
	if _, ok := Benchmark("definitely-not-a-benchmark"); ok {
		t.Error("unknown preset accepted")
	}
}

func TestFacadeSparsity(t *testing.T) {
	h := testCircuit(t)
	s := CompareSparsity(h)
	if s.CliqueNonzeros <= 0 || s.IGNonzeros <= 0 {
		t.Errorf("degenerate sparsity: %+v", s)
	}
}

func TestFacadeMultiway(t *testing.T) {
	h := testCircuit(t)
	res, err := KWay(h, 4, KWayOptions{Eps: EpsUnbounded})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 4 {
		t.Fatalf("K = %d", res.K)
	}
	re := EvaluateMultiway(h, res.Part, res.K)
	if re.SpanningNets != res.SpanningNets || re.Connectivity != res.Connectivity {
		t.Error("re-evaluation mismatch")
	}
}

func TestFacadePlacement(t *testing.T) {
	h := testCircuit(t)
	p1, lam, err := PlaceHall1D(h)
	if err != nil {
		t.Fatal(err)
	}
	if lam < 0 || len(p1.X) != h.NumModules() {
		t.Errorf("Hall1D: λ=%v len=%d", lam, len(p1.X))
	}
	p2, lams, err := PlaceHall2D(h)
	if err != nil {
		t.Fatal(err)
	}
	if lams[1] < lams[0]-1e-9 {
		t.Errorf("eigenvalues out of order: %v", lams)
	}
	if HPWL(h, p2) <= 0 {
		t.Error("zero HPWL for a connected circuit")
	}
	nets, modules, err := PlaceNetsAsPoints(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(nets.X) != h.NumNets() || len(modules.X) != h.NumModules() {
		t.Error("nets-as-points sizes wrong")
	}
}

func TestFacadeBookshelf(t *testing.T) {
	h := testCircuit(t)
	dir := t.TempDir()
	np := filepath.Join(dir, "c.nodes")
	ep := filepath.Join(dir, "c.nets")
	if err := SaveBookshelf(np, ep, h); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBookshelf(np, ep)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNets() != h.NumNets() || got.NumPins() != h.NumPins() {
		t.Errorf("bookshelf round trip: %d/%d vs %d/%d",
			got.NumNets(), got.NumPins(), h.NumNets(), h.NumPins())
	}
}

func TestFacadeDeterminism(t *testing.T) {
	h := testCircuit(t)
	a, err := IGMatch(h)
	if err != nil {
		t.Fatal(err)
	}
	b, err := IGMatch(h)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics != b.Metrics || a.BestRank != b.BestRank {
		t.Error("IGMatch not deterministic")
	}
}
