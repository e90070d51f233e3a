// Caching: the CacheLib case study (Appendix B) as an application — an LRU
// item cache under a get/set workload with the paper's bimodal size
// distribution, with large copies transparently offloaded by tenants under
// the DTO policy over four shared work queues.
package main

import (
	"fmt"

	"dsasim/internal/cachesim"
	"dsasim/internal/dsa"
	"dsasim/internal/platform"
	"dsasim/internal/sim"
)

func run(hwCores, threads int, useDSA bool) cachesim.Result {
	// One SPR socket; with DSA, one device with four shared WQs, one
	// group+engine each.
	pr := platform.SPR()
	pr.Nodes = pr.Nodes[:1]
	pr.Devices = 0
	if useDSA {
		pr.Devices = 1
	}
	g := dsa.GroupConfig{Engines: 1, WQs: []dsa.WQConfig{{Mode: dsa.Shared, Size: 16}}}
	pr.Groups = []dsa.GroupConfig{g, g, g, g}
	e := sim.New()
	sys := pr.System(e)
	devs, err := pr.NewDevices(e, sys)
	if err != nil {
		panic(err)
	}
	cfg := cachesim.Config{
		HWCores: hwCores, Threads: threads, OpsPerThd: 500,
		CacheSize: 64 << 20, Seed: 42,
	}
	if useDSA {
		cfg.WQs = devs[0].WQs()
	}
	res, err := cachesim.Run(e, sys, sys.Node(0), pr.CPU, cfg)
	if err != nil {
		panic(err)
	}
	if res.Corrupt > 0 {
		panic("cache returned corrupted items")
	}
	return res
}

func main() {
	fmt.Println("CacheLib-style cache: get/set rates and p99.999 tails, CPU vs transparent DSA offload")
	fmt.Printf("%-8s %14s %14s %12s %12s\n", "config", "get rate", "get w/ DSA", "find tail", "w/ DSA")
	for _, c := range []struct{ h, s int }{{1, 1}, {4, 4}, {4, 8}, {8, 16}} {
		cpuRes := run(c.h, c.s, false)
		dsaRes := run(c.h, c.s, true)
		fmt.Printf("%dh%-6d %11.0f/s %11.0f/s %12v %12v\n",
			c.h, c.s, cpuRes.GetRate, dsaRes.GetRate, cpuRes.FindTail, dsaRes.FindTail)
	}
	fmt.Println("\nall returned items passed content verification")
}
