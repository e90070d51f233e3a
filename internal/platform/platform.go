// Package platform describes the machines the paper evaluates (Table 2) and
// builds them: the virtual-time engine, the memory system, the DSA (or
// CBDMA) devices and the offload service in front of them.
//
// The Sapphire Rapids machine is written out once, in SPR. Every rig in the
// module starts from that profile (or one of its variants) and states only
// where it differs: fewer memory nodes, more devices, another group layout,
// another scheduler.
package platform

import (
	"fmt"
	"time"

	"dsasim/internal/cpu"
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// Profile describes a platform generation (Table 2).
type Profile struct {
	Name    string
	LLC     mem.LLCConfig
	UPILat  time.Duration
	UPIGBps float64
	// Nodes are the memory nodes; the machine has one socket per socket
	// number they name (SPR's Nodes[:1] is a one-socket machine).
	Nodes []mem.NodeConfig
	CPU   cpu.Model
	// Devices is the number of DMA devices to create and enable. Device i
	// is named DeviceConfig.Name followed by i.
	Devices int
	// DeviceSockets optionally places device i on DeviceSockets[i]
	// (devices beyond the list keep DeviceConfig.Socket). Placement-aware
	// profiles use it to put one DSA on each socket.
	DeviceSockets []int
	// DeviceConfig templates each device (socket/name are overridden).
	DeviceConfig dsa.Config
	// Groups is each device's group layout. Empty means one group holding
	// all of the device's engines and one 32-entry dedicated WQ. QoS
	// profiles use it to expose a reserved high-priority WQ next to a bulk
	// one, optionally with express read buffers (§3.4 F3).
	Groups []dsa.GroupConfig
	// Scheduler builds the offload service's WQ-selection policy
	// (default: offload.NewRoundRobin).
	Scheduler func() offload.Scheduler
	// Policy is the offload service's default tenant policy (zero value:
	// offload.DefaultPolicy).
	Policy *offload.Policy
}

// SPR returns the Sapphire Rapids profile: 56 cores, 105 MB LLC, eight DDR5
// channels, CXL 1.1 support (modelled as a CPU-less NUMA node), and up to
// four DSA instances (Table 2, Fig 10). Nodes are 0 socket-0 DRAM, 1
// socket-1 DRAM and 2 CXL, so Nodes[:2] is the DRAM-only machine.
func SPR() Profile {
	return Profile{
		Name:    "SPR",
		LLC:     mem.LLCConfig{Capacity: 105 << 20, Ways: 15, DDIOWays: 2},
		UPILat:  70 * time.Nanosecond,
		UPIGBps: 62,
		Nodes: []mem.NodeConfig{
			{Socket: 0, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
			{Socket: 1, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
			{Socket: 0, Kind: mem.CXL, ReadLat: 250 * time.Nanosecond, WriteLat: 400 * time.Nanosecond, ReadGBps: 16, WriteGBps: 10},
		},
		CPU:          cpu.SPRModel(),
		Devices:      1,
		DeviceConfig: dsa.DefaultConfig("dsa", 0),
	}
}

// qosGroup is the QoS device layout: engines engines behind a small
// high-priority shared WQ (the express lane) and a larger bulk shared WQ,
// with expressBufs of the group's read buffers reserved for the express
// lane (0 keeps the read pipe shared).
func qosGroup(engines, expressBufs int) dsa.GroupConfig {
	return dsa.GroupConfig{
		Engines:     engines,
		ExpressBufs: expressBufs,
		WQs: []dsa.WQConfig{
			{Mode: dsa.Shared, Size: 8, Priority: 15},
			{Mode: dsa.Shared, Size: 24, Priority: 5},
		},
	}
}

// SPRQoS returns the SPR profile configured for QoS-aware offload: each
// device exposes a small high-priority shared WQ (the express lane the
// PriorityAware scheduler reserves for latency-sensitive tenants) next to
// a larger bulk shared WQ, and the default policy adapts the offload
// threshold to device pressure. Tenants default to the Bulk class; mark
// foreground tenants with offload.WithClass(offload.LatencySensitive).
func SPRQoS() Profile {
	pr := SPR()
	pr.Name = "SPR-QoS"
	pr.Groups = []dsa.GroupConfig{qosGroup(pr.DeviceConfig.Engines, 0)}
	pr.Scheduler = func() offload.Scheduler { return offload.NewPriorityAware() }
	pol := offload.DefaultPolicy()
	pol.AdaptiveThreshold = true
	pr.Policy = &pol
	return pr
}

// SPRPlacement returns the SPR profile configured for data-home placement
// (G4): one DSA instance per socket and the Placement scheduler, which
// routes each descriptor to the device local to its source/destination
// data (falling back to the tenant's socket) and lets the batch paths
// split mixed-home flushes into per-socket sub-batches
// (offload.Policy.SplitBatches, on by default). Use it when workloads
// touch memory the submitting core is not adjacent to: tiered-memory
// migration, cross-socket shuffles, CXL traffic.
func SPRPlacement() Profile {
	pr := SPR()
	pr.Name = "SPR-Placement"
	pr.Devices = 2
	pr.DeviceSockets = []int{0, 1}
	pr.Scheduler = func() offload.Scheduler { return offload.NewPlacement() }
	return pr
}

// SPRAdaptive returns the profile whose every knob closes the loop on the
// telemetry plane instead of a hand-picked constant: one DSA per socket,
// each exposing an express/bulk WQ pair with part of the group's read
// buffers reserved for the express lane; the QoS-aware placement
// scheduler; and a policy that adapts the offload threshold to device
// pressure, detours around backlogged sockets, and sizes interrupt
// coalescing windows from each tenant's measured completion rate
// (Policy.CoalesceAdaptive). Use it when the workload mix shifts at
// runtime — the control loop retunes where a static profile would need
// re-profiling.
func SPRAdaptive() Profile {
	pr := SPR()
	pr.Name = "SPR-Adaptive"
	pr.Devices = 2
	pr.DeviceSockets = []int{0, 1}
	pr.Groups = []dsa.GroupConfig{qosGroup(pr.DeviceConfig.Engines, 24)}
	pr.Scheduler = func() offload.Scheduler { return offload.NewPlacementQoS() }
	pol := offload.DefaultPolicy()
	pol.AdaptiveThreshold = true
	pol.LoadAware = true
	pol.Wait = offload.Interrupt
	pol.CoalesceCount = 16
	pol.CoalesceWindow = 8 * time.Microsecond
	pol.CoalesceAdaptive = true
	pr.Policy = &pol
	return pr
}

// ICX returns the Ice Lake predecessor profile: 40 cores, 57 MB LLC, six
// DDR4 channels, and a CBDMA engine instead of DSA (Table 2).
func ICX() Profile {
	cfg := dsa.DefaultConfig("cbdma", 0)
	cfg.Timing = dsa.CBDMATiming()
	cfg.Engines = 1 // one logical channel used per the paper's methodology
	return Profile{
		Name:    "ICX",
		LLC:     mem.LLCConfig{Capacity: 57 << 20, Ways: 12, DDIOWays: 2},
		UPILat:  75 * time.Nanosecond,
		UPIGBps: 50,
		Nodes: []mem.NodeConfig{
			{Socket: 0, Kind: mem.DRAM, ReadLat: 120 * time.Nanosecond, WriteLat: 120 * time.Nanosecond, ReadGBps: 100, WriteGBps: 75},
			{Socket: 1, Kind: mem.DRAM, ReadLat: 120 * time.Nanosecond, WriteLat: 120 * time.Nanosecond, ReadGBps: 100, WriteGBps: 75},
		},
		CPU:          cpu.ICXModel(),
		Devices:      1,
		DeviceConfig: cfg,
	}
}

// System builds the profile's memory system on e, with one socket per
// socket number its nodes name.
func (pr Profile) System(e *sim.Engine) *mem.System {
	sockets := 0
	for _, n := range pr.Nodes {
		sockets = max(sockets, n.Socket+1)
	}
	return mem.NewSystem(e, mem.SystemConfig{
		Sockets:  sockets,
		LLC:      pr.LLC,
		UPILat:   pr.UPILat,
		UPIGBps:  pr.UPIGBps,
		NodeDefs: pr.Nodes,
	})
}

// NewDevices creates, configures and enables the profile's devices on sys.
func (pr Profile) NewDevices(e *sim.Engine, sys *mem.System) ([]*dsa.Device, error) {
	devs := make([]*dsa.Device, 0, pr.Devices)
	for i := 0; i < pr.Devices; i++ {
		cfg := pr.DeviceConfig
		cfg.Name = fmt.Sprintf("%s%d", pr.DeviceConfig.Name, i)
		if i < len(pr.DeviceSockets) {
			cfg.Socket = pr.DeviceSockets[i]
		}
		dev, err := newDevice(e, sys, cfg, pr.Groups)
		if err != nil {
			return nil, err
		}
		devs = append(devs, dev)
	}
	return devs, nil
}

// newDevice creates device cfg on sys, adds groups (the default layout when
// empty) and enables it.
func newDevice(e *sim.Engine, sys *mem.System, cfg dsa.Config, groups []dsa.GroupConfig) (*dsa.Device, error) {
	if len(groups) == 0 {
		groups = []dsa.GroupConfig{{
			Engines: cfg.Engines,
			WQs:     []dsa.WQConfig{{Mode: dsa.Dedicated, Size: 32}},
		}}
	}
	dev := dsa.New(e, sys, cfg)
	for _, g := range groups {
		if _, err := dev.AddGroup(g); err != nil {
			return nil, err
		}
	}
	if err := dev.Enable(); err != nil {
		return nil, err
	}
	return dev, nil
}

// Platform is a constructed system ready to run workloads.
type Platform struct {
	Profile Profile
	E       *sim.Engine
	Sys     *mem.System
	Devices []*dsa.Device

	// Offload is the platform's submission service: every tenant submits
	// through it, and its Scheduler owns device/WQ placement.
	Offload *offload.Service
}

// NewPlatform builds and enables a platform from profile.
func NewPlatform(pr Profile) *Platform {
	e := sim.New()
	sys := pr.System(e)
	devs, err := pr.NewDevices(e, sys)
	if err != nil {
		panic(err)
	}
	pl := &Platform{Profile: pr, E: e, Sys: sys, Devices: devs}
	var wqs []*dsa.WQ
	for _, dev := range devs {
		wqs = append(wqs, dev.WQs()...)
	}
	// A device-less profile (CPU-only baseline) constructs fine; the
	// service comes up with the first device (here or via AddDevice), and
	// tenant creation fails until then.
	if len(wqs) > 0 {
		pl.initService(wqs)
	}
	return pl
}

// initService builds the offload service from the profile knobs.
func (pl *Platform) initService(wqs []*dsa.WQ) {
	opts := []offload.ServiceOption{offload.WithCPUModel(pl.Profile.CPU)}
	if pl.Profile.Scheduler != nil {
		opts = append(opts, offload.WithScheduler(pl.Profile.Scheduler()))
	}
	if pl.Profile.Policy != nil {
		opts = append(opts, offload.WithPolicy(*pl.Profile.Policy))
	}
	svc, err := offload.NewService(pl.E, pl.Sys, wqs, opts...)
	if err != nil {
		panic(err)
	}
	pl.Offload = svc
}

// AddDevice creates, configures, and enables an additional device named
// name on socket with the given group layout (the profile's Groups when
// none), registers its WQs with the offload service, and returns it.
func (pl *Platform) AddDevice(name string, socket int, groups ...dsa.GroupConfig) (*dsa.Device, error) {
	cfg := pl.Profile.DeviceConfig
	cfg.Name = name
	cfg.Socket = socket
	if len(groups) == 0 {
		groups = pl.Profile.Groups
	}
	dev, err := newDevice(pl.E, pl.Sys, cfg, groups)
	if err != nil {
		return nil, err
	}
	pl.Devices = append(pl.Devices, dev)
	if pl.Offload == nil {
		pl.initService(dev.WQs())
	} else {
		pl.Offload.AddWQs(dev.WQs()...)
	}
	return dev, nil
}

// Node returns platform memory node id (0 = socket-0 DRAM, 1 = socket-1
// DRAM, 2 = CXL on SPR).
func (pl *Platform) Node(id int) *mem.Node { return pl.Sys.Node(id) }

// NewTenant creates an offload tenant on socket 0: a fresh PASID-bound
// address space and core, submitting through the platform scheduler.
func (pl *Platform) NewTenant(opts ...offload.TenantOption) *offload.Tenant {
	if pl.Offload == nil {
		panic("platform: no devices (no work queues to submit to)")
	}
	tn, err := pl.Offload.NewTenant(opts...)
	if err != nil {
		panic(err)
	}
	return tn
}

// NewTenantOn creates a tenant on the given socket.
func (pl *Platform) NewTenantOn(socket int, opts ...offload.TenantOption) *offload.Tenant {
	opts = append([]offload.TenantOption{offload.OnSocket(socket)}, opts...)
	return pl.NewTenant(opts...)
}

// Run starts fn as a simulated process and runs the engine to completion.
func (pl *Platform) Run(fn func(p *sim.Proc)) {
	pl.E.Go("main", fn)
	pl.E.Run()
}
