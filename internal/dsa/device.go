package dsa

import (
	"fmt"
	"slices"

	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// Config sizes one DSA device instance. The zero value is not valid; use
// DefaultConfig for the Sapphire Rapids resource counts (Table 2: 8 WQs,
// 4 engines; spec: 128 WQ entries, 96 read buffers).
type Config struct {
	Name        string
	Socket      int   // socket the device is integrated on
	Engines     int   // processing engines available for grouping
	MaxWQs      int   // work queues available for grouping
	WQEntries   int   // total WQ entries to divide among WQs
	ReadBufs    int   // read buffers to divide among groups
	MaxBatch    int   // maximum descriptors per batch
	MaxTransfer int64 // maximum transfer size per descriptor
	ATCEntries  int   // device address-translation-cache entries
	Timing      Timing
}

// DefaultConfig returns the SPR DSA resource configuration.
func DefaultConfig(name string, socket int) Config {
	return Config{
		Name:        name,
		Socket:      socket,
		Engines:     4,
		MaxWQs:      8,
		WQEntries:   128,
		ReadBufs:    96,
		MaxBatch:    1024,
		MaxTransfer: 1 << 31,
		ATCEntries:  1024,
		Timing:      DefaultTiming(),
	}
}

// Device is one DSA instance (§3.2, Fig 1a): an RCiEP exposing portals,
// holding configured groups of WQs and engines, with an ATC in front of the
// platform IOMMU.
type Device struct {
	Cfg Config
	E   *sim.Engine
	Sys *mem.System

	fabric *sim.Pipe
	groups []*Group
	wqs    []*WQ

	// enabled latches configuration: groups and WQs cannot change after
	// Enable, mirroring the idxd driver's device state machine.
	enabled bool

	spaces map[int]*mem.AddressSpace // PASID → bound address space (SVM)

	atc        map[atcKey]int // page → LRU tick
	atcTick    int
	atcEntries int

	// ddio tracks how many bytes of each destination buffer are currently
	// resident in the LLC's DDIO partition, so streaming rewrites of hot
	// buffers hit the cache while footprints beyond the partition leak to
	// memory (§4.3's "leaky DMA", Fig 10).
	ddio map[mem.Addr]int64

	// probe, when installed, receives raw occupancy and completion events
	// for the streaming-telemetry subsystem (see probe.go).
	probe Probe

	// faults, when armed, injects deterministic page faults, WQ disable
	// windows, and outages (see fault.go). offline is the outage flag.
	faults  *FaultInjector
	offline bool

	// free pools completed works for reuse (see newWork). It never holds
	// more items than the peak number of works in flight at once.
	free []*work

	// comps and batches pool released completions and the batch state of
	// released batch parents (see newCompletion). Both start empty and
	// grow only when every pooled item is still held.
	comps   []*Completion
	batches []*batchState

	// calls pools the chain state of Client calls parked on this device's
	// WQs (see call). The device, not the Client, owns the pool: clients
	// come and go with their tenants, the device stays.
	calls []*call

	stats DeviceStats
}

type atcKey struct {
	pasid int
	page  mem.Addr
}

// DeviceStats aggregates the device's hardware counters (Device.Stats).
type DeviceStats struct {
	Submitted int64 // descriptors accepted into WQs (incl. batch parents)
	// Retries counts ENQCMD rejections due to full shared WQs. A plane
	// drain that finds a WQ full parks until it frees a slot instead of
	// probing it every PollGap, so it adds one rejection per block, not
	// one per skipped probe.
	Retries        int64
	Completed      int64 // work descriptors completed (incl. batch children)
	BatchesFetched int64
	ATCHits        int64
	ATCMisses      int64
	PageFaults     int64
	BytesRead      int64 // inbound traffic
	BytesWritten   int64 // outbound traffic
	DDIOLeaked     int64 // destination bytes that overflowed the DDIO ways
	InjectedFaults int64 // synthetic page faults taken from the injector
	WQDisables     int64 // WQ disable windows entered
	Outages        int64 // device outage windows entered
}

// New creates a device on system sys. The device starts unconfigured: add
// groups and WQs, then call Enable.
func New(e *sim.Engine, sys *mem.System, cfg Config) *Device {
	if cfg.Engines <= 0 || cfg.MaxWQs <= 0 || cfg.WQEntries <= 0 {
		panic("dsa: invalid device config")
	}
	if cfg.Timing.FabricGBps == 0 {
		cfg.Timing = DefaultTiming()
	}
	return &Device{
		Cfg:        cfg,
		E:          e,
		Sys:        sys,
		fabric:     sim.NewPipe(e, cfg.Timing.FabricGBps),
		spaces:     make(map[int]*mem.AddressSpace),
		atc:        make(map[atcKey]int),
		atcEntries: cfg.ATCEntries,
		ddio:       make(map[mem.Addr]int64),
	}
}

// newWork returns a zeroed work from the free list, or a fresh one with
// its completion event bound.
func (d *Device) newWork() *work {
	if n := len(d.free); n > 0 {
		wk := d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
		return wk
	}
	wk := &work{}
	wk.fireFn = wk.fire
	return wk
}

// freeWork returns a work whose completion record has been written to the
// free list. The caller must hold no reference to it afterwards.
func (d *Device) freeWork(wk *work) {
	*wk = work{fireFn: wk.fireFn}
	d.free = append(d.free, wk)
}

// newCompletion returns a completion from the free list, or a fresh one.
func (d *Device) newCompletion() *Completion {
	if n := len(d.comps); n > 0 {
		c := d.comps[n-1]
		d.comps[n-1] = nil
		d.comps = d.comps[:n-1]
		c.released = false
		return c
	}
	return &Completion{dev: d}
}

// freeCompletion recycles a released completion out of every coalescing
// window, with its share of the interrupt that announced it and its batch
// state. It stays marked released while pooled, so a second Release of
// the same handle panics.
func (d *Device) freeCompletion(c *Completion) {
	if c.intr != nil {
		c.coal.dropDelivery(c.intr)
	}
	if c.batch != nil {
		d.freeBatch(c.batch)
	}
	*c = Completion{dev: d, sig: c.sig, released: true}
	d.comps = append(d.comps, c)
}

// newBatch returns batch state for a batch parent's work wk executing on
// eng, its child records zeroed (StatusNone: not attempted).
func (d *Device) newBatch(eng *Engine, wk *work) *batchState {
	var bs *batchState
	if n := len(d.batches); n > 0 {
		bs = d.batches[n-1]
		d.batches[n-1] = nil
		d.batches = d.batches[:n-1]
	} else {
		bs = &batchState{}
		bs.fetchedFn, bs.doneFn = bs.fetched, bs.done
	}
	n := len(wk.d.Descs)
	bs.eng, bs.wk, bs.children = eng, wk, wk.d.Descs
	bs.childRecs = slices.Grow(bs.childRecs[:0], n)[:n]
	return bs
}

// freeBatch returns a batch parent's state to the pool, keeping its
// child-record array and bound callbacks.
func (d *Device) freeBatch(bs *batchState) {
	clear(bs.childRecs)
	*bs = batchState{childRecs: bs.childRecs[:0], fetchedFn: bs.fetchedFn, doneFn: bs.doneFn}
	d.batches = append(d.batches, bs)
}

// ddioWrite models a cache-control destination write of n bytes into buf:
// bytes already resident in the DDIO partition are rewritten in place; the
// cold remainder allocates into the partition, and whatever does not fit
// leaks to memory. It returns the bytes that must go to DRAM.
func (d *Device) ddioWrite(buf *mem.Buffer, n int64) (leaked int64) {
	llc := d.Sys.SocketOf(d.Cfg.Socket).LLC
	res := d.ddio[buf.Base]
	cold := buf.Size - res
	if cold > n {
		cold = n
	}
	if cold <= 0 {
		return 0 // fully resident: pure LLC rewrite
	}
	leaked = llc.InsertDDIO(d.Owner(), cold)
	d.ddio[buf.Base] += cold - leaked
	return leaked
}

// BindPASID attaches an address space to the device, as binding a process
// for SVM does (§3.4 F1). Descriptors carry the PASID that selects it.
func (d *Device) BindPASID(as *mem.AddressSpace) {
	d.spaces[as.PASID] = as
}

// space resolves a PASID to its bound address space.
func (d *Device) space(pasid int) (*mem.AddressSpace, error) {
	as, ok := d.spaces[pasid]
	if !ok {
		return nil, fmt.Errorf("dsa: PASID %d not bound to %s", pasid, d.Cfg.Name)
	}
	return as, nil
}

// Stats returns a copy of the device counters.
func (d *Device) Stats() DeviceStats { return d.stats }

// Groups returns the configured groups.
func (d *Device) Groups() []*Group { return d.groups }

// WQs returns every configured work queue on the device.
func (d *Device) WQs() []*WQ { return d.wqs }

// Enabled reports whether the device configuration is latched.
func (d *Device) Enabled() bool { return d.enabled }

// GroupConfig describes one group to configure on a device.
type GroupConfig struct {
	Engines  int // engines assigned to the group
	ReadBufs int // read buffers assigned (0 = fair share of remainder)
	// ExpressBufs carves a guaranteed share of the group's read buffers
	// for its highest-priority WQs (§3.4 F3's second knob): reads from
	// top-priority queues draw from the reserved partition, so bulk reads
	// saturating the remaining buffers cannot throttle the express lane.
	// 0 keeps the single shared allocation.
	ExpressBufs int
	WQs         []WQConfig
}

// WQConfig describes one work queue within a group.
type WQConfig struct {
	Mode     WQMode
	Size     int // entries
	Priority int // 1 (low) .. 15 (high); 0 = default 5
}

// AddGroup configures a group before Enable. It validates resource limits
// the way the idxd driver does and returns the new group.
func (d *Device) AddGroup(cfg GroupConfig) (*Group, error) {
	if d.enabled {
		return nil, fmt.Errorf("dsa: %s already enabled", d.Cfg.Name)
	}
	if cfg.Engines <= 0 {
		return nil, fmt.Errorf("dsa: group needs at least one engine")
	}
	usedEngines, usedWQs, usedEntries, usedBufs := d.usage()
	if usedEngines+cfg.Engines > d.Cfg.Engines {
		return nil, fmt.Errorf("dsa: engine overcommit: %d configured + %d requested > %d",
			usedEngines, cfg.Engines, d.Cfg.Engines)
	}
	if usedWQs+len(cfg.WQs) > d.Cfg.MaxWQs {
		return nil, fmt.Errorf("dsa: WQ overcommit: %d configured + %d requested > %d",
			usedWQs, len(cfg.WQs), d.Cfg.MaxWQs)
	}
	if cfg.ReadBufs < 0 || usedBufs+cfg.ReadBufs > d.Cfg.ReadBufs {
		return nil, fmt.Errorf("dsa: read buffer overcommit")
	}
	if cfg.ExpressBufs < 0 {
		return nil, fmt.Errorf("dsa: negative express read-buffer share")
	}
	if cfg.ReadBufs > 0 && cfg.ExpressBufs >= cfg.ReadBufs {
		return nil, fmt.Errorf("dsa: express share %d must leave bulk read buffers (group has %d)",
			cfg.ExpressBufs, cfg.ReadBufs)
	}
	if len(cfg.WQs) == 0 {
		return nil, fmt.Errorf("dsa: group needs at least one WQ")
	}
	g := &Group{
		ID:          len(d.groups),
		Dev:         d,
		ReadBufs:    cfg.ReadBufs,
		ExpressBufs: cfg.ExpressBufs,
	}
	g.dispatchFn = g.dispatch
	for i := 0; i < cfg.Engines; i++ {
		eng := &Engine{ID: usedEngines + i, group: g}
		eng.releaseFn = eng.release
		g.Engines = append(g.Engines, eng)
	}
	for _, wc := range cfg.WQs {
		if wc.Size <= 0 {
			return nil, fmt.Errorf("dsa: WQ size must be positive")
		}
		if usedEntries+wc.Size > d.Cfg.WQEntries {
			return nil, fmt.Errorf("dsa: WQ entry overcommit: %d + %d > %d",
				usedEntries, wc.Size, d.Cfg.WQEntries)
		}
		usedEntries += wc.Size
		prio := wc.Priority
		if prio == 0 {
			prio = 5
		}
		if prio < 1 || prio > 15 {
			return nil, fmt.Errorf("dsa: WQ priority %d out of range [1,15]", prio)
		}
		wq := &WQ{
			ID:       len(d.wqs),
			Dev:      d,
			Mode:     wc.Mode,
			Size:     wc.Size,
			Priority: prio,
			group:    g,
		}
		g.WQs = append(g.WQs, wq)
		d.wqs = append(d.wqs, wq)
	}
	d.groups = append(d.groups, g)
	return g, nil
}

// usage totals the currently configured resources.
func (d *Device) usage() (engines, wqs, entries, bufs int) {
	for _, g := range d.groups {
		engines += len(g.Engines)
		bufs += g.ReadBufs
		for _, wq := range g.WQs {
			wqs++
			entries += wq.Size
		}
	}
	return
}

// Enable latches the configuration and distributes unassigned read buffers
// evenly across groups (the hardware's automatic allocation mode). The
// device then accepts descriptors.
func (d *Device) Enable() error {
	if d.enabled {
		return fmt.Errorf("dsa: %s already enabled", d.Cfg.Name)
	}
	if len(d.groups) == 0 {
		return fmt.Errorf("dsa: %s has no groups configured", d.Cfg.Name)
	}
	_, _, _, usedBufs := d.usage()
	spare := d.Cfg.ReadBufs - usedBufs
	var auto []*Group
	for _, g := range d.groups {
		if g.ReadBufs == 0 {
			auto = append(auto, g)
		}
	}
	for i, g := range auto {
		share := spare / len(auto)
		if i < spare%len(auto) {
			share++
		}
		g.ReadBufs = share
	}
	for _, g := range d.groups {
		g.finalize()
	}
	d.enabled = true
	return nil
}

// translate models an ATC lookup for the page containing addr, returning the
// translation latency (ATC hit or IOMMU walk) and updating the LRU cache.
func (d *Device) translate(pasid int, addr mem.Addr) sim.Time {
	key := atcKey{pasid, addr &^ mem.Addr(mem.Page4K-1)}
	d.atcTick++
	if _, ok := d.atc[key]; ok {
		d.atc[key] = d.atcTick
		d.stats.ATCHits++
		return d.Cfg.Timing.ATCHit
	}
	d.stats.ATCMisses++
	if len(d.atc) >= d.atcEntries {
		// Evict the least recently used entry.
		var victim atcKey
		min := int(^uint(0) >> 1)
		for k, tick := range d.atc {
			if tick < min {
				min, victim = tick, k
			}
		}
		delete(d.atc, victim)
	}
	d.atc[key] = d.atcTick
	return d.Sys.IOMMU.WalkLat()
}

// FlushATC clears the device translation cache (as an IOMMU TLB shootdown
// would).
func (d *Device) FlushATC() {
	d.atc = make(map[atcKey]int)
}

// Owner is the LLC occupancy tag for the device's DDIO writes.
func (d *Device) Owner() string { return d.Cfg.Name }
