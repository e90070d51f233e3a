// Package idxd mirrors the Linux IDXD driver and libaccel-config stack
// (§3.3, Fig 1b): device discovery, group/WQ/engine configuration from
// declarative specs (the same shape as accel-config's JSON config files),
// an enable/disable state machine, and char-device-style portal hand-out
// that gives user clients access to enabled WQs.
package idxd

import (
	"encoding/json"
	"fmt"
	"sort"

	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// DeviceSpec is a declarative device configuration, the analog of one
// device stanza in an accel-config JSON file.
type DeviceSpec struct {
	Name   string      `json:"dev"`
	Groups []GroupSpec `json:"groups"`
}

// GroupSpec configures one group.
type GroupSpec struct {
	Engines  int `json:"grouped_engines"`
	ReadBufs int `json:"read_buffers,omitempty"`
	// ExpressBufs reserves part of the group's read buffers for its
	// top-priority WQs (the QoS read-bandwidth partition, §3.4 F3).
	ExpressBufs int      `json:"express_read_buffers,omitempty"`
	WQs         []WQSpec `json:"grouped_workqueues"`
}

// WQSpec configures one work queue.
type WQSpec struct {
	Name     string `json:"dev"`
	Mode     string `json:"mode"` // "dedicated" or "shared"
	Size     int    `json:"size"`
	Priority int    `json:"priority,omitempty"`
}

// State is the driver-visible device lifecycle state.
type State int

// Device lifecycle states.
const (
	// Disabled devices are discovered but unconfigured.
	Disabled State = iota
	// Configured devices have groups defined but are not accepting work.
	Configured
	// Enabled devices accept descriptor submission.
	Enabled
)

// String returns the sysfs-style state name.
func (s State) String() string {
	switch s {
	case Configured:
		return "configured"
	case Enabled:
		return "enabled"
	default:
		return "disabled"
	}
}

// Registry is the driver's device inventory, the analog of
// /sys/bus/dsa/devices.
type Registry struct {
	e    *sim.Engine
	sys  *mem.System
	devs map[string]*Entry
}

// Entry pairs a device with its driver state and the WQ name index.
type Entry struct {
	Dev   *dsa.Device
	State State
	wqs   map[string]*dsa.WQ
}

// NewRegistry creates an empty registry for the platform.
func NewRegistry(e *sim.Engine, sys *mem.System) *Registry {
	return &Registry{e: e, sys: sys, devs: make(map[string]*Entry)}
}

// Discover registers a new unconfigured device with the SPR default
// resources (as device probe does) and returns it.
func (r *Registry) Discover(name string, socket int) (*Entry, error) {
	if _, ok := r.devs[name]; ok {
		return nil, fmt.Errorf("idxd: device %q already registered", name)
	}
	ent := &Entry{
		Dev: dsa.New(r.e, r.sys, dsa.DefaultConfig(name, socket)),
		wqs: make(map[string]*dsa.WQ),
	}
	r.devs[name] = ent
	return ent, nil
}

// Get returns the entry for a device name.
func (r *Registry) Get(name string) (*Entry, error) {
	ent, ok := r.devs[name]
	if !ok {
		return nil, fmt.Errorf("idxd: no device %q", name)
	}
	return ent, nil
}

// Names lists registered device names in sorted order.
func (r *Registry) Names() []string {
	names := make([]string, 0, len(r.devs))
	for n := range r.devs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Configure applies spec to the named device. The device must be Disabled.
func (r *Registry) Configure(spec DeviceSpec) error {
	ent, err := r.Get(spec.Name)
	if err != nil {
		return err
	}
	if ent.State != Disabled {
		return fmt.Errorf("idxd: %s is %v; disable before reconfiguring", spec.Name, ent.State)
	}
	for gi, gs := range spec.Groups {
		gc := dsa.GroupConfig{Engines: gs.Engines, ReadBufs: gs.ReadBufs, ExpressBufs: gs.ExpressBufs}
		for _, ws := range gs.WQs {
			mode := dsa.Dedicated
			switch ws.Mode {
			case "dedicated", "":
				mode = dsa.Dedicated
			case "shared":
				mode = dsa.Shared
			default:
				return fmt.Errorf("idxd: group %d: unknown WQ mode %q", gi, ws.Mode)
			}
			gc.WQs = append(gc.WQs, dsa.WQConfig{Mode: mode, Size: ws.Size, Priority: ws.Priority})
		}
		g, err := ent.Dev.AddGroup(gc)
		if err != nil {
			return fmt.Errorf("idxd: group %d: %w", gi, err)
		}
		for wi, ws := range gs.WQs {
			name := ws.Name
			if name == "" {
				name = fmt.Sprintf("%s/wq%d.%d", spec.Name, gi, wi)
			}
			if _, dup := ent.wqs[name]; dup {
				return fmt.Errorf("idxd: duplicate WQ name %q", name)
			}
			ent.wqs[name] = g.WQs[wi]
		}
	}
	ent.State = Configured
	return nil
}

// ConfigureJSON parses an accel-config-style JSON document (an array of
// device specs) and applies every spec.
func (r *Registry) ConfigureJSON(data []byte) error {
	var specs []DeviceSpec
	if err := json.Unmarshal(data, &specs); err != nil {
		return fmt.Errorf("idxd: parsing config: %w", err)
	}
	for _, s := range specs {
		if err := r.Configure(s); err != nil {
			return err
		}
	}
	return nil
}

// Enable transitions a configured device to Enabled.
func (r *Registry) Enable(name string) error {
	ent, err := r.Get(name)
	if err != nil {
		return err
	}
	if ent.State != Configured {
		return fmt.Errorf("idxd: %s is %v, want configured", name, ent.State)
	}
	if err := ent.Dev.Enable(); err != nil {
		return err
	}
	ent.State = Enabled
	return nil
}

// OpenWQ returns the named WQ for client use — the analog of opening the WQ
// char device and mmapping its portal. The device must be enabled.
func (r *Registry) OpenWQ(device, wq string) (*dsa.WQ, error) {
	ent, err := r.Get(device)
	if err != nil {
		return nil, err
	}
	if ent.State != Enabled {
		return nil, fmt.Errorf("idxd: %s is %v, not enabled", device, ent.State)
	}
	w, ok := ent.wqs[wq]
	if !ok {
		return nil, fmt.Errorf("idxd: no WQ %q on %s", wq, device)
	}
	return w, nil
}

// WQNames lists the configured WQ names of a device in sorted order.
func (r *Registry) WQNames(device string) ([]string, error) {
	ent, err := r.Get(device)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ent.wqs))
	for n := range ent.wqs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// EnabledWQs returns every WQ of every enabled device, in device-name order
// — what DML's device discovery iterates.
func (r *Registry) EnabledWQs() []*dsa.WQ {
	var out []*dsa.WQ
	for _, name := range r.Names() {
		ent := r.devs[name]
		if ent.State != Enabled {
			continue
		}
		wqn, _ := r.WQNames(name)
		for _, w := range wqn {
			out = append(out, ent.wqs[w])
		}
	}
	return out
}

// DefaultSpec returns the configuration the paper's microbenchmarks use: one
// group with all four engines and one 32-entry dedicated WQ (§4.1, G6).
func DefaultSpec(name string) DeviceSpec {
	return DeviceSpec{
		Name: name,
		Groups: []GroupSpec{{
			Engines: 4,
			WQs:     []WQSpec{{Mode: "dedicated", Size: 32}},
		}},
	}
}
