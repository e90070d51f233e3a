// Command accel-config mirrors the accel-config utility from idxd-config
// (§3.3): it discovers simulated devices, applies group/WQ configurations
// from JSON, enables devices, and lists the resulting topology.
//
// Subcommands:
//
//	accel-config list                       # show the device inventory
//	accel-config load-config -c cfg.json    # apply a JSON config
//	accel-config enable-device dsa0         # enable a configured device
//	accel-config demo                       # discover+configure+enable+copy
package main

import (
	"flag"
	"fmt"
	"os"

	"dsasim/internal/dsa"
	"dsasim/internal/idxd"
	"dsasim/internal/mem"
	"dsasim/internal/platform"
	"dsasim/internal/sim"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// newPlatform builds socket 0 of the simulated SPR platform (its DRAM node
// only) with four discoverable but unconfigured DSA instances, as a freshly
// booted system presents.
func newPlatform() (*sim.Engine, *mem.System, *idxd.Registry) {
	pr := platform.SPR()
	pr.Nodes = pr.Nodes[:1]
	e := sim.New()
	sys := pr.System(e)
	reg := idxd.NewRegistry(e, sys)
	for i := 0; i < 4; i++ {
		if _, err := reg.Discover(fmt.Sprintf("dsa%d", i), 0); err != nil {
			fail("discover: %v", err)
		}
	}
	return e, sys, reg
}

func list(reg *idxd.Registry) {
	for _, name := range reg.Names() {
		ent, _ := reg.Get(name)
		fmt.Printf("%-6s state=%-10s engines=%d wq-entries=%d read-bufs=%d\n",
			name, ent.State, ent.Dev.Cfg.Engines, ent.Dev.Cfg.WQEntries, ent.Dev.Cfg.ReadBufs)
		wqs, _ := reg.WQNames(name)
		for _, wq := range wqs {
			fmt.Printf("  wq %s\n", wq)
		}
	}
}

func main() {
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fail("usage: accel-config <list|load-config|enable-device|demo> [args]\n(this is a simulation-backed accel-config; state is per-invocation)")
	}
	e, sys, reg := newPlatform()

	switch args[0] {
	case "list":
		list(reg)

	case "load-config":
		fs := flag.NewFlagSet("load-config", flag.ExitOnError)
		path := fs.String("c", "", "JSON config file (accel-config format)")
		_ = fs.Parse(args[1:])
		if *path == "" {
			fail("load-config requires -c <file>")
		}
		data, err := os.ReadFile(*path)
		if err != nil {
			fail("%v", err)
		}
		if err := reg.ConfigureJSON(data); err != nil {
			fail("%v", err)
		}
		fmt.Println("configuration applied:")
		list(reg)

	case "enable-device":
		if len(args) < 2 {
			fail("enable-device requires a device name")
		}
		if err := reg.Configure(idxd.DefaultSpec(args[1])); err != nil {
			fail("%v", err)
		}
		if err := reg.Enable(args[1]); err != nil {
			fail("%v", err)
		}
		fmt.Printf("%s enabled with the default configuration\n", args[1])
		list(reg)

	case "demo":
		// Full control-path walk: configure dsa0 with two groups, enable,
		// open a WQ through the char-dev interface, and run one copy.
		spec := idxd.DeviceSpec{
			Name: "dsa0",
			Groups: []idxd.GroupSpec{
				{Engines: 2, ReadBufs: 64, WQs: []idxd.WQSpec{
					{Name: "dsa0/wq0.0", Mode: "dedicated", Size: 32, Priority: 10},
				}},
				{Engines: 2, WQs: []idxd.WQSpec{
					{Name: "dsa0/wq1.0", Mode: "shared", Size: 16},
				}},
			},
		}
		if err := reg.Configure(spec); err != nil {
			fail("%v", err)
		}
		if err := reg.Enable("dsa0"); err != nil {
			fail("%v", err)
		}
		list(reg)

		wq, err := reg.OpenWQ("dsa0", "dsa0/wq0.0")
		if err != nil {
			fail("%v", err)
		}
		as := mem.NewAddressSpace(1)
		wq.Dev.BindPASID(as)
		src := as.Alloc(1<<20, mem.OnNode(sys.Node(0)))
		dst := as.Alloc(1<<20, mem.OnNode(sys.Node(0)))
		sim.NewRand(1).Bytes(src.Bytes())
		cl := dsa.NewClient(wq, nil)
		e.Go("demo", func(p *sim.Proc) {
			comp, err := cl.RunSync(p, dsa.Descriptor{
				Op: dsa.OpMemmove, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: 1 << 20,
			}, dsa.Poll)
			if err != nil {
				fail("%v", err)
			}
			fmt.Printf("copied 1MB via %s in %v (%.1f GB/s)\n",
				"dsa0/wq0.0", comp.Latency(), sim.Rate(1<<20, comp.Latency()))
		})
		e.Run()

	default:
		fail("unknown subcommand %q", args[0])
	}
}
