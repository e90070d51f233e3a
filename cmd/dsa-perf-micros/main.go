// Command dsa-perf-micros mirrors the intel/dsa-perf-micros microbenchmark
// the paper uses (§4.1): it drives one operation against the simulated DSA
// with configurable transfer size, batch size, queue depth, WQ mode, and
// buffer placement, and prints achieved throughput and latency.
//
// Example:
//
//	dsa-perf-micros -op memmove -size 65536 -qd 32 -iters 200
//	dsa-perf-micros -op crc_gen -size 4096 -batch 16 -wq shared
//	dsa-perf-micros -op memmove -size 262144 -src cxl -dst dram
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/platform"
	"dsasim/internal/sim"
)

var opNames = map[string]dsa.OpType{
	"memmove":         dsa.OpMemmove,
	"fill":            dsa.OpFill,
	"compare":         dsa.OpCompare,
	"compare_pattern": dsa.OpComparePattern,
	"crc_gen":         dsa.OpCRCGen,
	"copy_crc":        dsa.OpCopyCRC,
	"dualcast":        dsa.OpDualcast,
	"dif_insert":      dsa.OpDIFInsert,
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func main() {
	opName := flag.String("op", "memmove", "operation: memmove fill compare compare_pattern crc_gen copy_crc dualcast dif_insert")
	size := flag.Int64("size", 4096, "transfer size per work descriptor (bytes)")
	batch := flag.Int("batch", 1, "work descriptors per batch descriptor")
	qd := flag.Int("qd", 32, "client queue depth (1 = synchronous)")
	iters := flag.Int("iters", 200, "submissions to run")
	wqMode := flag.String("wq", "dedicated", "work queue mode: dedicated or shared")
	wqSize := flag.Int("wq-size", 32, "work queue entries")
	engines := flag.Int("engines", 4, "engines in the group")
	srcLoc := flag.String("src", "dram", "source placement: dram, remote, cxl, llc")
	dstLoc := flag.String("dst", "dram", "destination placement: dram, remote, cxl, llc")
	cacheCtl := flag.Bool("cache-control", false, "steer destination writes to the LLC (G3)")
	block := flag.Bool("block-on-fault", false, "set the block-on-fault flag")
	flag.Parse()

	op, ok := opNames[*opName]
	if !ok {
		fail("unknown op %q", *opName)
	}
	mode := dsa.Dedicated
	switch *wqMode {
	case "dedicated":
	case "shared":
		mode = dsa.Shared
	default:
		fail("unknown WQ mode %q", *wqMode)
	}

	pr := platform.SPR()
	pr.Groups = []dsa.GroupConfig{{Engines: *engines, WQs: []dsa.WQConfig{{Mode: mode, Size: *wqSize}}}}
	e := sim.New()
	sys := pr.System(e)
	devs, err := pr.NewDevices(e, sys)
	if err != nil {
		fail("configuring device: %v", err)
	}
	dev := devs[0]
	as := mem.NewAddressSpace(1)
	dev.BindPASID(as)

	place := func(loc string) (*mem.Node, bool) {
		switch loc {
		case "dram":
			return sys.Node(0), false
		case "remote":
			return sys.Node(1), false
		case "cxl":
			return sys.Node(2), false
		case "llc":
			return sys.Node(0), true
		default:
			fail("unknown placement %q", loc)
			return nil, false
		}
	}
	srcNode, srcLLC := place(*srcLoc)
	dstNode, dstLLC := place(*dstLoc)

	span := *size * int64(*batch)
	alloc := func(node *mem.Node, llc bool, n int64) *mem.Buffer {
		b := as.Alloc(n, mem.OnNode(node))
		b.CacheResident = llc
		sim.NewRand(uint64(n)).Bytes(b.Bytes())
		return b
	}
	src := alloc(srcNode, srcLLC, span)
	src2 := alloc(srcNode, srcLLC, span)
	dst := alloc(dstNode, dstLLC, span/512*520+520)
	dst2 := alloc(dstNode, dstLLC, span)

	var flags dsa.Flags
	if *cacheCtl {
		flags |= dsa.FlagCacheControl
	}
	if *block {
		flags |= dsa.FlagBlockOnFault
	}

	mkOne := func(off int64) dsa.Descriptor {
		d := dsa.Descriptor{Op: op, Flags: flags, Size: *size,
			Src: src.Addr(off), Dst: dst.Addr(off), Pattern: 0xA5A5A5A5A5A5A5A5}
		switch op {
		case dsa.OpCompare:
			d.Src2 = src2.Addr(off)
		case dsa.OpDualcast:
			d.Dst2 = dst2.Addr(off)
		case dsa.OpDIFInsert:
			d.Dst = dst.Addr(off / 512 * 520)
			d.DIFBlock = 512
		}
		return d
	}

	cl := dsa.NewClient(dev.WQs()[0], nil)
	var elapsed sim.Time
	var latSum sim.Time
	var n int64
	e.Go("bench", func(p *sim.Proc) {
		start := p.Now()
		var window []*dsa.Completion
		for i := 0; i < *iters; i++ {
			cl.Prepare(p)
			var d dsa.Descriptor
			if *batch == 1 {
				d = mkOne(0)
				d.PASID = 1
			} else {
				subs := make([]dsa.Descriptor, *batch)
				for j := range subs {
					subs[j] = mkOne(int64(j) * *size)
				}
				d = dsa.Descriptor{Op: dsa.OpBatch, PASID: 1, Descs: subs}
			}
			comp, err := cl.Submit(p, d)
			if err != nil {
				fail("submit: %v", err)
			}
			window = append(window, comp)
			if len(window) >= *qd {
				w := window[0]
				window = window[1:]
				w.Wait(p)
				latSum += w.Latency()
				n++
			}
		}
		for _, w := range window {
			w.Wait(p)
			latSum += w.Latency()
			n++
		}
		elapsed = p.Now() - start
	})
	e.Run()

	bytes := *size * int64(*batch) * int64(*iters)
	st := dev.Stats()
	fmt.Printf("op=%s size=%d batch=%d qd=%d wq=%s engines=%d src=%s dst=%s\n",
		*opName, *size, *batch, *qd, *wqMode, *engines, *srcLoc, *dstLoc)
	fmt.Printf("throughput:  %.2f GB/s\n", sim.Rate(bytes, elapsed))
	fmt.Printf("avg latency: %v per submission\n", time.Duration(int64(latSum)/n))
	fmt.Printf("device:      %d descriptors, %d ATC hits, %d misses, %d retries, %d faults\n",
		st.Completed, st.ATCHits, st.ATCMisses, st.Retries, st.PageFaults)
	fmt.Printf("traffic:     %d read, %d written, %d leaked past DDIO\n",
		st.BytesRead, st.BytesWritten, st.DDIOLeaked)
}
