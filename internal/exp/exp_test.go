package exp

import (
	"math"
	"testing"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// TestAllExperimentsProduceSaneTables runs every experiment once and checks
// structural sanity: at least one table, every table non-empty, every value
// finite and non-negative.
func TestAllExperimentsProduceSaneTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is long; skipped with -short")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run()
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tab := range tables {
				if len(tab.Series()) == 0 || len(tab.Xs()) == 0 {
					t.Fatalf("table %s empty", tab.ID)
				}
				for _, s := range tab.Series() {
					for _, x := range tab.Xs() {
						v, ok := tab.Get(s, x)
						if !ok {
							continue
						}
						if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
							t.Fatalf("table %s series %s x=%v: bad value %v", tab.ID, s, x, v)
						}
					}
				}
				if tab.String() == "" || tab.CSV() == "" {
					t.Fatalf("table %s failed to render", tab.ID)
				}
			}
		})
	}
}

// TestByID covers the registry lookups.
func TestByID(t *testing.T) {
	if _, err := ByID("fig3"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	seen := make(map[string]bool)
	for _, e := range All() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
}

// TestTable1AllVerified asserts every Table 1 operation verifies.
func TestTable1AllVerified(t *testing.T) {
	for _, r := range verifyOps() {
		if !r.ok {
			t.Errorf("operation %s failed functional verification", r.name)
		}
	}
}

// The figure baselines and the tenant's CPU path share one cost model:
// for every Fig 2 op, swTime equals the Duration of the same descriptor
// run through a Tenant forced onto the Software path.
func TestSWTimeMatchesTenantSoftwarePath(t *testing.T) {
	for _, o := range fig2Ops {
		for _, size := range []int64{256, 4 << 10, 64 << 10} {
			sz := fig2Size(o.op, size)
			want := newEnv(1).swTime(o.op, sz, nil, nil, false, false)

			v := newEnv(1)
			svc, err := offload.NewService(v.e, v.sys, v.devs[0].WQs())
			if err != nil {
				t.Fatal(err)
			}
			tn, err := svc.NewTenant(offload.SharedSpace(v.as), offload.OnCore(v.core))
			if err != nil {
				t.Fatal(err)
			}
			d := v.swDesc(o.op, sz, nil, nil, false, false)
			sw := offload.On(offload.Software)
			var got time.Duration
			v.e.Go("sw", func(p *sim.Proc) {
				var f *offload.Future
				switch d.Op {
				case dsa.OpMemmove:
					f, err = tn.Copy(p, d.Dst, d.Src, d.Size, sw)
				case dsa.OpFill:
					f, err = tn.Fill(p, d.Dst, d.Size, d.Pattern, sw)
				case dsa.OpCompare:
					f, err = tn.Compare(p, d.Src, d.Src2, d.Size, sw)
				case dsa.OpComparePattern:
					f, err = tn.ComparePattern(p, d.Src, d.Size, d.Pattern, sw)
				case dsa.OpCRCGen:
					f, err = tn.CRC32(p, d.Src, d.Size, d.CRCSeed, sw)
				case dsa.OpCopyCRC:
					f, err = tn.CopyCRC(p, d.Dst, d.Src, d.Size, d.CRCSeed, sw)
				case dsa.OpDualcast:
					f, err = tn.Dualcast(p, d.Dst, d.Dst2, d.Src, d.Size, sw)
				case dsa.OpDIFInsert:
					f, err = tn.DIFInsert(p, d.Dst, d.Src, d.Size, d.DIFBlock, d.DIFTags, sw)
				default:
					t.Errorf("%s: no tenant call for %v", o.name, d.Op)
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				res, err := f.Wait(p, offload.Poll)
				if err != nil || res.Hardware {
					t.Errorf("%s/%d: hardware=%v err=%v, want a software result", o.name, sz, res.Hardware, err)
				}
				got = res.Duration
			})
			v.e.Run()
			if got != want {
				t.Errorf("%s/%d: tenant software path %v, swTime %v", o.name, sz, got, want)
			}
		}
	}
}
