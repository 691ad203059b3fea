// Multiboard: k-way partitioning for multi-board packaging — the "packaging
// or repackaging of designs" application from the paper's introduction.
// A design too large for one board is split across four; every net spanning
// boards needs a backplane connection, so the objective is to minimize
// spanning nets while keeping boards usable.
package main

import (
	"fmt"
	"log"

	"igpart"
)

func main() {
	cfg, _ := igpart.Benchmark("19ks")
	h, err := igpart.Generate(cfg.Scaled(0.5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("design: %d modules, %d nets\n", h.NumModules(), h.NumNets())

	for _, k := range []int{2, 4, 8} {
		res, err := igpart.KWay(h, k, igpart.KWayOptions{Eps: igpart.EpsUnbounded})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%d boards:\n", res.K)
		fmt.Printf("  board sizes:     %v\n", res.PartSizesSorted())
		fmt.Printf("  spanning nets:   %d (backplane connections)\n", res.SpanningNets)
		fmt.Printf("  connectivity:    %d (sum of spans-1)\n", res.Connectivity)
		fmt.Printf("  ratio value:     %.5f\n", res.RatioValue)
	}

	// Compare the 4-way result against a naive index-sliced assignment.
	res, err := igpart.KWay(h, 4, igpart.KWayOptions{Eps: igpart.EpsUnbounded})
	if err != nil {
		log.Fatal(err)
	}
	naive := make([]int, h.NumModules())
	per := (h.NumModules() + 3) / 4
	for v := range naive {
		naive[v] = v / per
	}
	base := igpart.EvaluateMultiway(h, naive, 4)
	fmt.Printf("\n4-way: naive slicing spans %d nets, IG-Match %d (%.1f%% fewer)\n",
		base.SpanningNets, res.SpanningNets,
		100*(1-float64(res.SpanningNets)/float64(base.SpanningNets)))
}
