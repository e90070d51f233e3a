// Package dsasim is a simulation-based reproduction of "A Quantitative
// Analysis and Guidelines of Data Streaming Accelerator in Modern Intel Xeon
// Scalable Processors" (ASPLOS 2024).
//
// The package bundles the building blocks under internal/ into platforms
// matching the paper's evaluated systems (Table 2): a virtual-time engine,
// a memory system (NUMA DRAM, CXL, LLC with DDIO), CPU cores running
// software baselines, and one or more DSA (or CBDMA) device instances. The
// machine descriptions and the code that builds them live in
// internal/platform; this package re-exports them for programs outside the
// module, which cannot import internal/ packages. The experiment harness in
// internal/exp regenerates every figure and table of the paper's evaluation
// on the same profiles; cmd/dsa-bench renders them.
//
// Work is submitted through the unified offload API (internal/offload): the
// platform owns an offload.Service whose pluggable Scheduler places each
// descriptor on a work queue (round-robin, NUMA-local, least-loaded, the
// QoS-aware priority scheduler of the SPRQoS profile, or the data-home
// Placement scheduler of the SPRPlacement profile, which routes on where
// the data lives and splits mixed-home batches across sockets — G4), and
// each client of the service is an offload.Tenant — a PASID-bound address
// space plus a submitting core, carrying a QoS class and an
// admission-control budget.
// Every operation returns a Future; Wait(p, mode) covers the polled,
// UMWAIT, and interrupt completion paths, and the paper's guidelines are
// policy: G2's offload threshold (static or pressure-adaptive) and G1's
// small-transfer coalescing (AutoBatcher) live in offload.Policy.
//
// Quick start:
//
//	pl := dsasim.NewPlatform(dsasim.SPR())
//	tn := pl.NewTenant()
//	pl.Run(func(p *sim.Proc) {
//	    src := tn.Alloc(1 << 20)
//	    dst := tn.Alloc(1 << 20)
//	    fut, _ := tn.Copy(p, dst.Addr(0), src.Addr(0), 1<<20)
//	    res, _ := fut.Wait(p, offload.Poll)
//	    fmt.Println("copied in", res.Duration)
//	})
package dsasim

import "dsasim/internal/platform"

type (
	// Profile describes a platform generation (Table 2).
	Profile = platform.Profile
	// Platform is a constructed system ready to run workloads.
	Platform = platform.Platform
)

// The Table 2 profiles and the platform constructor (see internal/platform).
var (
	SPR          = platform.SPR
	SPRQoS       = platform.SPRQoS
	SPRPlacement = platform.SPRPlacement
	SPRAdaptive  = platform.SPRAdaptive
	ICX          = platform.ICX
	NewPlatform  = platform.NewPlatform
)
