package cachesim

import (
	"testing"
	"time"

	"dsasim/internal/cpu"
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

func testSystem(e *sim.Engine) *mem.System {
	return mem.NewSystem(e, mem.SystemConfig{
		Sockets: 1,
		LLC:     mem.LLCConfig{Capacity: 105 << 20, Ways: 15, DDIOWays: 2},
		NodeDefs: []mem.NodeConfig{
			{Socket: 0, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
		},
	})
}

// fourSWQs builds the paper's CacheLib DSA setup: four groups, each one
// shared WQ and one engine.
func fourSWQs(t *testing.T, e *sim.Engine, sys *mem.System) []*dsa.WQ {
	t.Helper()
	dev := dsa.New(e, sys, dsa.DefaultConfig("dsa0", 0))
	for i := 0; i < 4; i++ {
		if _, err := dev.AddGroup(dsa.GroupConfig{
			Engines: 1,
			WQs:     []dsa.WQConfig{{Mode: dsa.Shared, Size: 16}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dev.Enable(); err != nil {
		t.Fatal(err)
	}
	return dev.WQs()
}

func TestCacheLRUSemantics(t *testing.T) {
	e := sim.New()
	sys := testSystem(e)
	as := mem.NewAddressSpace(1)
	c := NewCache(as, sys.Node(0), 1<<20)

	a := c.Allocate(1, 256<<10)
	copy(a.Bytes(), []byte("itemA"))
	c.Allocate(2, 256<<10)
	c.Allocate(3, 256<<10)
	c.Allocate(4, 256<<10) // cache now full
	if _, _, ok := c.Find(1); !ok {
		t.Fatal("item 1 missing before overflow")
	}
	c.Allocate(5, 256<<10) // evicts LRU = 2 (1 was just touched)
	if _, _, ok := c.Find(2); ok {
		t.Fatal("LRU item 2 not evicted")
	}
	if _, _, ok := c.Find(1); !ok {
		t.Fatal("recently used item 1 evicted")
	}
	if c.Used() > 1<<20 {
		t.Fatalf("Used %d exceeds capacity", c.Used())
	}
	if c.Evictions == 0 {
		t.Fatal("no evictions counted")
	}
}

func TestCacheReplaceSameKey(t *testing.T) {
	e := sim.New()
	sys := testSystem(e)
	as := mem.NewAddressSpace(1)
	c := NewCache(as, sys.Node(0), 1<<20)
	c.Allocate(1, 1024)
	c.Allocate(1, 2048)
	if c.Len() != 1 {
		t.Fatalf("Len = %d after replace", c.Len())
	}
	if c.Used() != 2048 {
		t.Fatalf("Used = %d, want 2048", c.Used())
	}
}

func TestBufferRecycling(t *testing.T) {
	e := sim.New()
	sys := testSystem(e)
	as := mem.NewAddressSpace(1)
	c := NewCache(as, sys.Node(0), 4096)
	b1 := c.Allocate(1, 1000) // class 1024
	c.Allocate(2, 4000)       // evicts 1
	b3 := c.Allocate(3, 900)  // class 1024: must reuse b1's buffer
	if b1 != b3 {
		t.Fatal("slab class did not recycle evicted buffer")
	}
}

func TestSizeDistributionMatchesPaper(t *testing.T) {
	g := NewSizeGen(1)
	var big, total int64
	var bigBytes, allBytes int64
	for i := 0; i < 200000; i++ {
		s := g.Next()
		total++
		allBytes += s
		if s >= 8<<10 {
			big++
			bigBytes += s
		}
	}
	bigFrac := float64(big) / float64(total)
	if bigFrac < 0.040 || bigFrac > 0.056 {
		t.Fatalf("big-op fraction = %.3f, want ≈0.048", bigFrac)
	}
	byteFrac := float64(bigBytes) / float64(allBytes)
	if byteFrac < 0.55 {
		t.Fatalf("big ops carry %.2f of bytes, want the dominant share", byteFrac)
	}
}

func TestRunCPUBaseline(t *testing.T) {
	e := sim.New()
	sys := testSystem(e)
	res, err := Run(e, sys, sys.Node(0), cpu.SPRModel(), Config{
		HWCores: 2, Threads: 2, OpsPerThd: 400,
		CacheSize: 32 << 20, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GetRate <= 0 || res.SetRate <= 0 {
		t.Fatalf("rates = %+v", res)
	}
	if res.Corrupt != 0 {
		t.Fatalf("%d corrupted items", res.Corrupt)
	}
	if res.Verified == 0 {
		t.Fatal("no items verified")
	}
}

func TestDSARaisesRateAndCutsTail(t *testing.T) {
	// Fig 19: offloading the big copies raises op rate and slashes tail
	// latency for moderate core counts.
	run := func(useDSA bool) Result {
		e := sim.New()
		sys := testSystem(e)
		cfg := Config{
			HWCores: 4, Threads: 4, OpsPerThd: 600,
			CacheSize: 64 << 20, Seed: 99,
		}
		if useDSA {
			cfg.WQs = fourSWQs(t, e, sys)
		}
		res, err := Run(e, sys, sys.Node(0), cpu.SPRModel(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cpuRes := run(false)
	dsaRes := run(true)
	if dsaRes.GetRate <= cpuRes.GetRate {
		t.Fatalf("DSA get rate %.0f should beat CPU %.0f", dsaRes.GetRate, cpuRes.GetRate)
	}
	if dsaRes.AllocTail >= cpuRes.AllocTail {
		t.Fatalf("DSA alloc tail %v should be below CPU %v", dsaRes.AllocTail, cpuRes.AllocTail)
	}
	if dsaRes.Corrupt != 0 {
		t.Fatalf("corruption with DSA path: %d", dsaRes.Corrupt)
	}
}

func TestOversubscriptionLowersPerThreadRate(t *testing.T) {
	run := func(threads int) Result {
		e := sim.New()
		sys := testSystem(e)
		res, err := Run(e, sys, sys.Node(0), cpu.SPRModel(), Config{
			HWCores: 2, Threads: threads, OpsPerThd: 300,
			CacheSize: 32 << 20, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	matched := run(2)
	oversub := run(8)
	// Total op rate should not scale 4× when threads quadruple over the
	// same two cores. (Get/set mix shifts as the cache warms, so compare
	// the combined rate.)
	m := matched.GetRate + matched.SetRate
	o := oversub.GetRate + oversub.SetRate
	if o > 1.5*m {
		t.Fatalf("oversubscribed rate %.0f vs matched %.0f: time-sharing not modelled", o, m)
	}
}

// With no item at or above the DTO threshold every DSA-mode copy runs on
// the core, so DSA mode must be CPU mode to the nanosecond: oversubscribed
// threads time-share the cores for those copies too.
func TestCoreCopiesChargedAlikeInBothModes(t *testing.T) {
	const ops, seed = 8, 89
	for _, c := range []struct{ h, s int }{{1, 1}, {1, 4}, {2, 8}} {
		// Precondition: no thread draws an offloadable size (each thread
		// draws at most one size per operation).
		for th := 0; th < c.s; th++ {
			g := NewSizeGen(seed + uint64(th)*7919)
			for i := 0; i < ops; i++ {
				if g.Next() >= 8<<10 {
					t.Fatalf("seed %d draws an offloadable size; pick another", uint64(seed))
				}
			}
		}
		run := func(useDSA bool) Result {
			e := sim.New()
			sys := testSystem(e)
			cfg := Config{HWCores: c.h, Threads: c.s, OpsPerThd: ops, CacheSize: 32 << 20, KeySpace: 4, Seed: seed}
			if useDSA {
				cfg.WQs = fourSWQs(t, e, sys)
			}
			res, err := Run(e, sys, sys.Node(0), cpu.SPRModel(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		if cpuRes, dsaRes := run(false), run(true); dsaRes != cpuRes {
			t.Errorf("%dh%ds: DSA mode %+v, CPU mode %+v", c.h, c.s, dsaRes, cpuRes)
		}
	}
}
