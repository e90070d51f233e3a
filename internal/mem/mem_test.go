package mem

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"dsasim/internal/sim"
)

func testSystem(e *sim.Engine) *System {
	return NewSystem(e, SystemConfig{
		Sockets: 2,
		LLC:     LLCConfig{Capacity: 105 << 20, Ways: 15, DDIOWays: 2},
		UPILat:  70 * time.Nanosecond,
		UPIGBps: 62,
		NodeDefs: []NodeConfig{
			{Socket: 0, Kind: DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
			{Socket: 1, Kind: DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
			{Socket: 0, Kind: CXL, ReadLat: 250 * time.Nanosecond, WriteLat: 400 * time.Nanosecond, ReadGBps: 16, WriteGBps: 10},
		},
	})
}

func TestAllocAndRoundTrip(t *testing.T) {
	as := NewAddressSpace(1)
	b := as.Alloc(4096)
	msg := []byte("hello, dsa")
	if err := as.Write(b.Addr(100), msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := as.Read(b.Addr(100), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read back %q, want %q", got, msg)
	}
}

func TestNodeAtResolvesHomeNode(t *testing.T) {
	e := sim.New()
	sys := testSystem(e)
	as := NewAddressSpace(1)
	dram := as.Alloc(8192, OnNode(sys.Node(1)))
	cxl := as.Alloc(4096, OnNode(sys.Node(2)))
	bare := as.Alloc(4096) // no placement
	if n := as.NodeAt(dram.Addr(0)); n != sys.Node(1) {
		t.Fatalf("NodeAt(dram base) = %v, want node 1", n)
	}
	if n := as.NodeAt(dram.Addr(8191)); n != sys.Node(1) {
		t.Fatalf("NodeAt(dram last byte) = %v, want node 1", n)
	}
	if n := as.NodeAt(cxl.Addr(100)); n != sys.Node(2) {
		t.Fatalf("NodeAt(cxl) = %v, want node 2", n)
	}
	if n := as.NodeAt(bare.Addr(0)); n != nil {
		t.Fatalf("NodeAt(unplaced buffer) = %v, want nil", n)
	}
	if n := as.NodeAt(Addr(0x10)); n != nil {
		t.Fatalf("NodeAt(unmapped) = %v, want nil", n)
	}
}

func TestNodeAtZeroAllocs(t *testing.T) {
	e := sim.New()
	sys := testSystem(e)
	as := NewAddressSpace(1)
	var addrs []Addr
	for i := 0; i < 16; i++ {
		addrs = append(addrs, as.Alloc(4096, OnNode(sys.Node(i%3))).Addr(1))
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, a := range addrs {
			if as.NodeAt(a) == nil {
				t.Fatal("mapped address resolved to nil node")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("NodeAt allocated %.1f times per run, want 0", allocs)
	}
}

func TestNodeBandwidthAccessors(t *testing.T) {
	e := sim.New()
	sys := testSystem(e)
	if got := sys.Node(0).WriteGBps(); got != 75 {
		t.Fatalf("DRAM WriteGBps = %v, want 75", got)
	}
	if got := sys.Node(2).ReadGBps(); got != 16 {
		t.Fatalf("CXL ReadGBps = %v, want 16", got)
	}
}

func TestLookupUnmappedFails(t *testing.T) {
	as := NewAddressSpace(1)
	as.Alloc(4096)
	if _, _, err := as.Lookup(Addr(0x10)); err == nil {
		t.Fatal("Lookup of unmapped address succeeded")
	}
}

func TestAllocationsDoNotOverlap(t *testing.T) {
	as := NewAddressSpace(1)
	var bufs []*Buffer
	sizes := []int64{1, 4095, 4096, 4097, 1 << 20, 3}
	for _, sz := range sizes {
		bufs = append(bufs, as.Alloc(sz))
	}
	for i, a := range bufs {
		for j, b := range bufs {
			if i == j {
				continue
			}
			if a.Base < b.Base+Addr(b.Size) && b.Base < a.Base+Addr(a.Size) {
				t.Fatalf("buffers %d and %d overlap", i, j)
			}
		}
	}
}

func TestAllocRespectsPageAlignment(t *testing.T) {
	as := NewAddressSpace(1)
	b := as.Alloc(100, WithPageSize(Page2M))
	if uint64(b.Base)%uint64(Page2M) != 0 {
		t.Fatalf("2M buffer base %#x not 2M-aligned", b.Base)
	}
	b2 := as.Alloc(100, WithPageSize(Page1G))
	if uint64(b2.Base)%uint64(Page1G) != 0 {
		t.Fatalf("1G buffer base %#x not 1G-aligned", b2.Base)
	}
}

func TestCrossBufferAccessRejected(t *testing.T) {
	as := NewAddressSpace(1)
	b := as.Alloc(4096)
	if err := as.Write(b.Addr(4090), make([]byte, 100)); err == nil {
		t.Fatal("overrunning write succeeded")
	}
	if _, err := as.View(b.Addr(0), 8192); err == nil {
		t.Fatal("overrunning view succeeded")
	}
}

func TestLazyBufferFaultsForDevice(t *testing.T) {
	as := NewAddressSpace(7)
	b := as.Alloc(3*Page4K, Lazy())
	buf, off, err := as.Resolve(b.Addr(0), b.Size)
	if err != nil || buf != b || off != 0 {
		t.Fatalf("Resolve = %v, %d, %v; want the buffer at offset 0", buf, off, err)
	}
	addr, absent := b.FirstAbsent(off, b.Size)
	if !absent || addr != b.Addr(0) {
		t.Fatalf("FirstAbsent = %#x, %v; want the first page", addr, absent)
	}
	if err := as.ResolveFault(addr); err != nil {
		t.Fatal(err)
	}
	// Next fault is the second page.
	if addr, absent = b.FirstAbsent(0, b.Size); !absent || addr != b.Addr(Page4K) {
		t.Fatalf("second fault at %#x (%v), want %#x", addr, absent, b.Addr(Page4K))
	}
	// A range inside the mapped first page faults nowhere, and neither
	// does an empty range on an absent page.
	if addr, absent = b.FirstAbsent(10, Page4K-10); absent {
		t.Fatalf("mapped prefix faults at %#x", addr)
	}
	if _, absent = b.FirstAbsent(2*Page4K, 0); absent {
		t.Fatal("empty range faults")
	}
	b.TouchAll()
	if addr, absent = b.FirstAbsent(0, b.Size); absent {
		t.Fatalf("fault at %#x after TouchAll", addr)
	}
}

func TestViewAliasesBackingStore(t *testing.T) {
	as := NewAddressSpace(1)
	b := as.Alloc(64)
	v, err := as.View(b.Addr(8), 8)
	if err != nil {
		t.Fatal(err)
	}
	v[0] = 0xAB
	if b.Bytes()[8] != 0xAB {
		t.Fatal("View did not alias backing store")
	}
}

func TestReadWriteRoundTripQuick(t *testing.T) {
	as := NewAddressSpace(1)
	b := as.Alloc(1 << 16)
	f := func(off uint16, payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		o := int64(off) % (b.Size - int64(len(payload)))
		if o < 0 {
			o = 0
		}
		if err := as.Write(b.Addr(o), payload); err != nil {
			return false
		}
		got := make([]byte, len(payload))
		if err := as.Read(b.Addr(o), got); err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSystemAccessLatency(t *testing.T) {
	e := sim.New()
	s := testSystem(e)
	local := s.Node(0)
	remote := s.Node(1)
	cxl := s.Node(2)
	if got := s.AccessLat(0, local, false); got != 110*time.Nanosecond {
		t.Fatalf("local read lat = %v", got)
	}
	if got := s.AccessLat(0, remote, false); got != 180*time.Nanosecond {
		t.Fatalf("remote read lat = %v, want 180ns", got)
	}
	if got := s.AccessLat(0, cxl, true); got != 400*time.Nanosecond {
		t.Fatalf("CXL write lat = %v, want 400ns", got)
	}
	if s.AccessLat(0, cxl, true) <= s.AccessLat(0, cxl, false) {
		t.Fatal("CXL writes must be slower than reads (Fig 6b asymmetry)")
	}
}

func TestRemoteTrafficBoundByUPI(t *testing.T) {
	e := sim.New()
	s := testSystem(e)
	remote := s.Node(1)
	// 62 GB/s UPI < 120 GB/s node read: UPI must dominate.
	done := s.ReserveTraffic(0, remote, 62_000_000, false) // 1ms at 62 GB/s
	if done < 990*time.Microsecond || done > 1010*time.Microsecond {
		t.Fatalf("remote transfer done at %v, want ~1ms (UPI bound)", done)
	}
}

func TestLocalTrafficBoundByNode(t *testing.T) {
	e := sim.New()
	s := testSystem(e)
	local := s.Node(0)
	done := s.ReserveTraffic(0, local, 120_000_000, false) // 1ms at 120 GB/s
	if done < 990*time.Microsecond || done > 1010*time.Microsecond {
		t.Fatalf("local transfer done at %v, want ~1ms", done)
	}
}

func TestLLCInsertAndEviction(t *testing.T) {
	c := NewLLC(LLCConfig{Capacity: 1000, Ways: 10, DDIOWays: 2})
	c.Insert("a", 600)
	c.Insert("b", 300)
	if c.Total() != 900 {
		t.Fatalf("Total = %d, want 900", c.Total())
	}
	evicted := c.Insert("b", 400) // overflows by 300, evicted from a
	if evicted == 0 {
		t.Fatal("overflow evicted nothing from other owners")
	}
	if c.Total() > 1000 {
		t.Fatalf("Total = %d exceeds capacity", c.Total())
	}
	if c.Occupancy("a") >= 600 {
		t.Fatalf("a's occupancy %d not reduced by pollution", c.Occupancy("a"))
	}
}

func TestLLCDDIOPartitionCapsStreamingWrites(t *testing.T) {
	c := NewLLC(LLCConfig{Capacity: 1500, Ways: 15, DDIOWays: 2}) // DDIO = 200
	c.Insert("app", 1200)
	leaked := c.InsertDDIO("dsa", 10_000)
	if got := c.Occupancy("dsa"); got != 200 {
		t.Fatalf("DDIO occupancy = %d, want 200 (partition cap)", got)
	}
	if leaked != 9800 {
		t.Fatalf("leaked = %d, want 9800", leaked)
	}
	// The app keeps nearly all of its footprint: only the DDIO share is at risk.
	if c.Occupancy("app") < 1200-200 {
		t.Fatalf("app occupancy %d, DDIO displaced too much", c.Occupancy("app"))
	}
}

func TestLLCEvictExplicit(t *testing.T) {
	c := NewLLC(LLCConfig{Capacity: 1000, Ways: 10, DDIOWays: 2})
	c.Insert("a", 500)
	if got := c.Evict("a", 200); got != 200 {
		t.Fatalf("Evict = %d, want 200", got)
	}
	if got := c.Evict("a", 1000); got != 300 {
		t.Fatalf("Evict clamped = %d, want 300", got)
	}
	if c.Total() != 0 {
		t.Fatalf("Total = %d, want 0", c.Total())
	}
}

func TestLLCInvariantNeverExceedsCapacity(t *testing.T) {
	c := NewLLC(LLCConfig{Capacity: 4096, Ways: 16, DDIOWays: 2})
	r := sim.NewRand(42)
	owners := []string{"a", "b", "c", "d"}
	for i := 0; i < 5000; i++ {
		o := owners[r.Intn(len(owners))]
		switch r.Intn(3) {
		case 0:
			c.Insert(o, int64(r.Intn(1000)+1))
		case 1:
			c.InsertDDIO(o, int64(r.Intn(1000)+1))
		case 2:
			c.Evict(o, int64(r.Intn(500)))
		}
		if c.Total() > c.Capacity() {
			t.Fatalf("iteration %d: total %d exceeds capacity %d", i, c.Total(), c.Capacity())
		}
		var sum int64
		for _, name := range c.Owners() {
			occ := c.Occupancy(name)
			if occ < 0 {
				t.Fatalf("iteration %d: negative occupancy for %s", i, name)
			}
			sum += occ
		}
		if sum != c.Total() {
			t.Fatalf("iteration %d: owner sum %d != total %d", i, sum, c.Total())
		}
	}
}

func TestIOMMUCounters(t *testing.T) {
	e := sim.New()
	m := NewIOMMU(e, IOMMUConfig{})
	if m.WalkLat() <= 0 || m.FaultLat() <= 0 {
		t.Fatal("default latencies must be positive")
	}
	if m.FaultLat() <= m.WalkLat() {
		t.Fatal("fault handling must cost more than a walk")
	}
	if m.Walks() != 2 || m.Faults() != 2 {
		t.Fatalf("counters = %d walks, %d faults; want 2, 2", m.Walks(), m.Faults())
	}
}

func TestDDIOCapacityScalesWithWays(t *testing.T) {
	c := NewLLC(LLCConfig{Capacity: 15000, Ways: 15, DDIOWays: 2})
	if got := c.DDIOCapacity(); got != 2000 {
		t.Fatalf("DDIOCapacity = %d, want 2000", got)
	}
	c.SetDDIOWays(4)
	if got := c.DDIOCapacity(); got != 4000 {
		t.Fatalf("after SetDDIOWays(4) = %d, want 4000", got)
	}
}
