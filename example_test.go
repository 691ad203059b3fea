package igpart_test

import (
	"fmt"

	"igpart"
)

// The smallest interesting netlist: two triangles joined by a bridge net.
func twoTriangles() *igpart.Netlist {
	b := igpart.NewBuilder()
	b.AddNet(0, 1)
	b.AddNet(1, 2)
	b.AddNet(0, 2)
	b.AddNet(3, 4)
	b.AddNet(4, 5)
	b.AddNet(3, 5)
	b.AddNamedNet("bridge", 2, 3)
	return b.Build()
}

func ExampleIGMatch() {
	h := twoTriangles()
	res, err := igpart.IGMatch(h)
	if err != nil {
		panic(err)
	}
	fmt.Println("cut nets:", res.Metrics.CutNets)
	fmt.Println("sides:", res.Metrics.SizeU, res.Metrics.SizeW)
	fmt.Println("cut within bound:", res.Metrics.CutNets <= res.MatchingBound)
	// Output:
	// cut nets: 1
	// sides: 3 3
	// cut within bound: true
}

func ExampleNewBuilder() {
	b := igpart.NewBuilder()
	b.AddNamedNet("clk", 0, 1, 2)
	b.AddNamedNet("d", 0, 1)
	h := b.Build()
	fmt.Println(h.NumModules(), "modules,", h.NumNets(), "nets,", h.NumPins(), "pins")
	// Output: 3 modules, 2 nets, 5 pins
}

func ExampleEvaluate() {
	h := twoTriangles()
	p := igpart.NewBipartition(h.NumModules())
	for v := 3; v <= 5; v++ {
		p.Set(v, igpart.W)
	}
	fmt.Println(igpart.Evaluate(h, p))
	// Output: 3:3 cut=1 ratio=0.1111
}

func ExampleKWay() {
	h := twoTriangles()
	res, err := igpart.KWay(h, 2, igpart.KWayOptions{Eps: igpart.EpsUnbounded})
	if err != nil {
		panic(err)
	}
	fmt.Println("parts:", res.K, "spanning:", res.SpanningNets)
	// Output: parts: 2 spanning: 1
}

func ExampleCompareSparsity() {
	b := igpart.NewBuilder()
	big := make([]int, 20)
	for i := range big {
		big[i] = i
	}
	b.AddNet(big...) // one 20-pin net: 190 clique pairs, 0 IG edges
	b.AddNet(0, 1)
	h := b.Build()
	s := igpart.CompareSparsity(h)
	fmt.Println(s.CliqueNonzeros > 10*s.IGNonzeros)
	// Output: true
}
