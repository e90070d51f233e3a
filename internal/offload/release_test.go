package offload_test

// Pooled Futures and completions: Release hands a resolved Future, with
// the completion record it resolved from, back for reuse. These tests pin
// that reuse changes nothing a caller can observe, and that misusing a
// released handle fails loudly instead of reading another operation.

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// releaseOp is everything a caller observes of one operation: its result
// (completion record and batch child records included), a pipeline's CRC
// stage result, its error and the instant its wait returned.
type releaseOp struct {
	Kind  string
	Res   offload.Result
	Stage uint64
	Err   string
	At    sim.Time
}

// releaseWorld is one run of the mixed workload: the logs of every
// submitter, the plane's stamped latencies, the tenants' counters, the
// destination bytes, and the Future handles the run was given.
type releaseWorld struct {
	logs    [][]releaseOp
	lats    []sim.Time
	stats   []offload.Stats
	dst     [][]byte
	handles map[*offload.Future]bool
	futures int
}

// runReleaseWorld drives three submitters through a seeded mix of every
// Future-returning path — hardware ops under interrupt coalescing waited
// by Poll, Interrupt and UMWAIT, auto-batched siblings sharing one record,
// explicit batches split across sockets, software ops, pipelines rebound
// per run, and plane submissions — on devices that inject page faults
// the service retries and falls back from. One submitter also churns a
// tenant, closing it with operations in flight. With release set, every
// Future is released once its result is read.
func runReleaseWorld(t *testing.T, release bool) releaseWorld {
	t.Helper()
	const procs, steps = 3, 36
	r := newRig(t, 2, dsa.WQConfig{Mode: dsa.Shared, Size: 16})
	for i, dev := range r.devs {
		if _, err := dev.InjectFaults(dsa.FaultConfig{Seed: 70 + uint64(i), PageFaultPer4K: 0.03}); err != nil {
			t.Fatal(err)
		}
	}
	svc := r.service(t, offload.WithScheduler(offload.NewPlacement()))
	pol := offload.DefaultPolicy()
	pol.CoalesceCount = 4
	pol.CoalesceWindow = 4 * time.Microsecond
	pol.AutoBatch = 4
	pol.RetryMax = 2
	pol.FallbackAfter = 2
	newTenant := func() *offload.Tenant {
		tn, err := svc.NewTenant(offload.WithClass(offload.Bulk), offload.TenantPolicy(pol))
		if err != nil {
			t.Fatal(err)
		}
		return tn
	}
	tn := newTenant()
	churned := []*offload.Tenant{newTenant()}
	const span = int64(256 << 10)
	src := [2]*mem.Buffer{tn.AllocOn(0, span), tn.AllocOn(1, span)}
	dst := [2]*mem.Buffer{tn.AllocOn(0, span), tn.AllocOn(1, span)}
	for i := range src {
		sim.NewRand(uint64(80 + i)).Bytes(src[i].Bytes())
	}
	plane, err := tn.NewPlane(procs)
	if err != nil {
		t.Fatal(err)
	}
	w := releaseWorld{logs: make([][]releaseOp, procs), handles: map[*offload.Future]bool{}}
	plane.OnCompletion(func(lat sim.Time, ok bool) { w.lats = append(w.lats, lat) })

	// got records one handle the run was given.
	got := func(f *offload.Future) *offload.Future {
		if f != nil {
			w.handles[f] = true
			w.futures++
		}
		return f
	}
	for s := 0; s < procs; s++ {
		s := s
		pl := tn.NewPipeline()
		in, out := pl.Arg(), pl.Arg()
		staged := pl.Scratch(8 << 10)
		crc := pl.CopyCRC(staged, in, 8<<10, 0)
		pl.Copy(out, staged, 8<<10, offload.After(crc))
		r.e.Go(fmt.Sprintf("submitter-%d", s), func(p *sim.Proc) {
			rng := sim.NewRand(uint64(90 + s))
			log := func(kind string, f *offload.Future, err error) {
				op := releaseOp{Kind: kind, At: p.Now()}
				if f != nil {
					op.Res, err = f.Wait(p, offload.WaitMode(rng.Intn(3)))
					op.At = p.Now()
					// The child records return with the completion.
					op.Res.Record.Children = slices.Clone(op.Res.Record.Children)
				}
				if err != nil {
					op.Err = err.Error()
				}
				w.logs[s] = append(w.logs[s], op)
				if f != nil && release {
					f.Release()
				}
			}
			// region picks a random 4 KB-aligned span of n bytes on a
			// random socket.
			region := func(bufs [2]*mem.Buffer, n int64) mem.Addr {
				return bufs[rng.Intn(2)].Addr(int64(rng.Intn(int((span-n)>>12))) << 12)
			}
			for i := 0; i < steps; i++ {
				p.Sleep(sim.Time(rng.Intn(2000)) * time.Nanosecond)
				n := int64(1+rng.Intn(8)) << 12
				switch k := rng.Intn(9); {
				case k == 0: // one hardware copy
					f, err := tn.Copy(p, region(dst, n), region(src, n), n, offload.On(offload.Hardware))
					log("copy", got(f), err)
				case k == 1: // two in flight, reaped newest first
					a, errA := tn.Copy(p, region(dst, n), region(src, n), n, offload.On(offload.Hardware))
					b, errB := tn.CRC32(p, region(src, n), n, 7, offload.On(offload.Hardware))
					log("crc", got(b), errB)
					log("copy", got(a), errA)
				case k == 2: // auto-batched siblings sharing one record
					var futs [3]*offload.Future
					var errs [3]error
					for j := range futs {
						futs[j], errs[j] = tn.Copy(p, region(dst, 1<<10), region(src, 1<<10), 1<<10)
						got(futs[j])
					}
					for j := range futs {
						log("autobatch", futs[j], errs[j])
					}
				case k == 3: // an explicit batch over both sockets
					b := tn.NewBatch()
					for j := 0; j < 4; j++ {
						b.Copy(dst[j%2].Addr(int64(j)<<14), src[j%2].Addr(int64(j)<<14), 4<<10)
					}
					f, err := b.Submit(p)
					log("batch", got(f), err)
				case k == 4: // software
					f, err := tn.CRC32(p, region(src, n), n, 3, offload.On(offload.Software))
					log("software", got(f), err)
				case k == 5: // a pipeline rebound per run
					pl.Bind(in, region(src, 8<<10))
					pl.Bind(out, region(dst, 8<<10))
					f, err := pl.Submit(p)
					log("pipeline", got(f), err)
					w.logs[s][len(w.logs[s])-1].Stage = crc.Result()
				case k == 6: // plane submissions
					for j := 0; j < 2; j++ {
						err := plane.Lane(s).SubmitStamped(p, dsa.Descriptor{
							Op: dsa.OpMemmove, Src: region(src, n), Dst: region(dst, n), Size: n,
						}, p.Now())
						log("plane", nil, err)
					}
					plane.WaitInflight(p, 0)
				case k == 7 && s == 0: // churn: close a tenant with work in flight
					old := churned[len(churned)-1]
					var futs [3]*offload.Future
					var errs [3]error
					for j := range futs {
						futs[j], errs[j] = old.Copy(p, region(dst, n), region(src, n), n, offload.On(offload.Hardware))
						got(futs[j])
					}
					if err := old.Close(p); err != nil {
						t.Error(err)
					}
					churned = append(churned, newTenant())
					for j := range futs {
						log("churn", futs[j], errs[j])
					}
				default: // a sub-threshold copy the core runs
					f, err := tn.Copy(p, region(dst, 1<<10), region(src, 1<<10), 1<<10, offload.NoBatch())
					log("small", got(f), err)
				}
			}
		})
	}
	r.e.Run()
	for _, tn := range append([]*offload.Tenant{tn}, churned...) {
		w.stats = append(w.stats, tn.Stats())
	}
	for _, b := range dst {
		w.dst = append(w.dst, b.Bytes())
	}
	return w
}

// TestFuturePoolReuseIsInvisible runs the mixed workload releasing every
// Future and never releasing one: results, child records, error strings,
// wait instants, plane latencies, tenant counters and destination bytes
// must match, while the releasing run hands out recycled handles.
func TestFuturePoolReuseIsInvisible(t *testing.T) {
	released := runReleaseWorld(t, true)
	kept := runReleaseWorld(t, false)
	kinds := map[string]int{}
	for s := range kept.logs {
		if len(released.logs[s]) != len(kept.logs[s]) {
			t.Fatalf("submitter %d logged %d ops with Release, %d without", s, len(released.logs[s]), len(kept.logs[s]))
		}
		for i, want := range kept.logs[s] {
			if got := released.logs[s][i]; !reflect.DeepEqual(got, want) {
				t.Errorf("submitter %d op %d with Release = %+v, without = %+v", s, i, got, want)
			}
			kinds[want.Kind]++
		}
	}
	if !reflect.DeepEqual(released.lats, kept.lats) {
		t.Error("plane latencies differ with and without Release")
	}
	if !reflect.DeepEqual(released.stats, kept.stats) {
		t.Errorf("tenant stats with Release = %+v, without = %+v", released.stats, kept.stats)
	}
	for i := range kept.dst {
		if !bytes.Equal(released.dst[i], kept.dst[i]) {
			t.Errorf("destination buffer %d differs with and without Release", i)
		}
	}
	t.Logf("ops %v, tenant stats %+v", kinds, kept.stats[0])
	// The mix must reach every path, recovery included.
	for _, k := range []string{"copy", "crc", "autobatch", "batch", "software", "pipeline", "plane", "churn", "small"} {
		if kinds[k] == 0 {
			t.Errorf("the mix produced no %s op (%v)", k, kinds)
		}
	}
	if st := kept.stats[0]; st.Retries == 0 || st.Fallbacks == 0 || st.Splits == 0 || st.Coalesce == 0 {
		t.Errorf("the mix did not exercise retry, fallback, batch splits and auto-batching: %+v", st)
	}
	if n := len(kept.handles); n != kept.futures {
		t.Fatalf("%d Futures without Release came from %d distinct handles", kept.futures, n)
	}
	if n := len(released.handles); 4*n > released.futures {
		t.Errorf("%d Futures with Release came from %d distinct handles: the pool was not reused", released.futures, n)
	}
}

// wantPanic calls fn and fails unless it panics with a message containing
// want.
func wantPanic(t *testing.T, what, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		v := recover()
		if v == nil {
			t.Errorf("%s did not panic", what)
		} else if msg, _ := v.(string); !strings.Contains(msg, want) {
			t.Errorf("%s panicked with %v, want a message containing %q", what, v, want)
		}
	}()
	fn()
}

// TestFutureReleaseMisusePanics pins the loud failures of a misused
// Future: Release before it resolves, any method after Release, and a
// second Release.
func TestFutureReleaseMisusePanics(t *testing.T) {
	r := newRig(t, 1)
	svc := r.service(t)
	tn, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	src, dst := tn.Alloc(16<<10), tn.Alloc(16<<10)
	r.run(func(p *sim.Proc) {
		f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), 16<<10, offload.On(offload.Hardware))
		if err != nil {
			t.Fatal(err)
		}
		wantPanic(t, "Release before Wait", "unresolved", f.Release)
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Fatal(err)
		}
		f.Release()
		wantPanic(t, "Wait after Release", "released", func() { f.Wait(p, offload.Poll) })
		wantPanic(t, "Done after Release", "released", func() { f.Done() })
		wantPanic(t, "second Release", "released", f.Release)

		// An auto-batched Future still queued is unresolved too.
		pol := tn.Policy()
		pol.AutoBatch = 4
		tn.SetPolicy(pol)
		q, err := tn.Copy(p, dst.Addr(0), src.Addr(0), 1<<10)
		if err != nil {
			t.Fatal(err)
		}
		wantPanic(t, "Release of a queued auto-batched Future", "unresolved", q.Release)
		if _, err := q.Wait(p, offload.Poll); err != nil {
			t.Fatal(err)
		}
		q.Release()
	})
}

// TestPipelineStaleHandleAfterRebind pins the run Future's lifetime: a
// handle the caller still holds keeps its own run's result however often
// the pipeline is rebound and resubmitted, because only a released Future
// is reused, and once released the handle panics on use.
func TestPipelineStaleHandleAfterRebind(t *testing.T) {
	r := newRig(t, 1)
	svc := r.service(t)
	tn, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	const n = int64(8 << 10)
	src := [2]*mem.Buffer{tn.Alloc(n), tn.Alloc(n)}
	dst := tn.Alloc(n)
	for i := range src {
		sim.NewRand(uint64(60 + i)).Bytes(src[i].Bytes())
	}
	pl := tn.NewPipeline()
	in := pl.Arg()
	crc := pl.CRC32(in, n, 0)
	pl.Copy(offload.At(dst.Addr(0)), in, n, offload.After(crc))
	r.run(func(p *sim.Proc) {
		pl.Bind(in, src[0].Addr(0))
		old, err := pl.Submit(p)
		if err != nil {
			t.Fatal(err)
		}
		first, err := old.Wait(p, offload.Interrupt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 4; i++ {
			pl.Bind(in, src[i%2].Addr(0))
			f, err := pl.Submit(p)
			if err != nil {
				t.Fatal(err)
			}
			if f == old {
				t.Fatal("a rebound pipeline reused a run Future its caller still holds")
			}
			if _, err := f.Wait(p, offload.Interrupt); err != nil {
				t.Fatal(err)
			}
			f.Release()
			if res, err := old.Wait(p, offload.Interrupt); err != nil || !reflect.DeepEqual(res, first) || !old.Done() {
				t.Fatalf("after run %d the held handle reads %+v, %v; its own run gave %+v", i, res, err, first)
			}
		}
		old.Release()
		wantPanic(t, "Wait on a released run handle", "released", func() { old.Wait(p, offload.Interrupt) })
		pl.Bind(in, src[0].Addr(0))
		f, err := pl.Submit(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(p, offload.Interrupt); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst.Bytes(), src[0].Bytes()) {
			t.Error("the last run did not deliver its bound source")
		}
		f.Release()
	})
}
