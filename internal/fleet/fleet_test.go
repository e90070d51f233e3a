package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"dsasim/internal/sim"
)

// testScale shrinks the shipped scenarios for unit tests: same rates,
// sizes, and budgets (the operating point), a fraction of the virtual
// time and connection count.
const testScale = 0.2

func TestZipfSampler(t *testing.T) {
	z := newZipf(16, 1.1)
	rng := sim.NewRand(7)
	var counts [16]int
	n := 20000
	for i := 0; i < n; i++ {
		r := z.sample(rng)
		if r < 0 || r >= 16 {
			t.Fatalf("sample %d out of range", r)
		}
		counts[r]++
	}
	// Rank 0 must dominate rank 8 by roughly (9/1)^1.1 ≈ 11×; allow slack.
	if counts[0] < 5*counts[8] {
		t.Fatalf("zipf skew too flat: rank0=%d rank8=%d", counts[0], counts[8])
	}
	// Uniform degenerates: every rank within 2× of the mean.
	u := newZipf(8, 0)
	var uc [8]int
	for i := 0; i < n; i++ {
		uc[u.sample(rng)]++
	}
	for r, c := range uc {
		if c < n/16 || c > n/4 {
			t.Fatalf("uniform zipf rank %d count %d, want ≈%d", r, c, n/8)
		}
	}
}

func TestArrivalRates(t *testing.T) {
	// Mean arrival rate over a long window tracks the configured rate for
	// each phase kind (diurnal and MMPP modulate around the same mean).
	for _, kind := range []PhaseKind{Steady, Diurnal, Burst, Overload} {
		gen := newArrivals(11)
		ph := Phase{Kind: kind, Mult: 1.0, Dur: 100 * time.Millisecond}
		rate := 1e6 // ops/s
		var at sim.Time
		n := 0
		for at < sim.Time(ph.Dur) {
			at += gen.next(ph, rate, at, sim.Time(ph.Dur))
			n++
		}
		want := rate * ph.Dur.Seconds()
		if float64(n) < 0.85*want || float64(n) > 1.15*want {
			t.Fatalf("kind %d: %d arrivals over %v at %v ops/s, want ≈%v", kind, n, ph.Dur, rate, want)
		}
	}
}

func TestSameSeedSameTables(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc.Scaled(testScale)
		a := Run(sc)
		b := Run(sc)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed produced different results:\n%+v\n%+v", sc.Name, a, b)
		}
		if a.SLOOk+a.SLOMiss == 0 {
			t.Fatalf("%s: offload-layer SLO accounting saw no operations", sc.Name)
		}
	}
}

// TestPlaneShedsOnlyOverCap checks the background plane's admission sheds
// only sustained over-rate: a steady packetswitch phase at 1.55x design
// load offers background traffic at 97% of AdmitCap and sheds nothing on
// any seed, because every lane draws the tenant's one bucket and its burst
// absorbs the lanes' Poisson clumping. Split per lane, the bucket shed 37
// to 52 of these arrivals. At 2.0x, 125% of the cap, the cap still binds.
func TestPlaneShedsOnlyOverCap(t *testing.T) {
	bgShed := func(mult float64, seed uint64) int64 {
		sc := Packetswitch()
		sc.Seed += seed
		sc.Phases = []Phase{{Name: "steady", Kind: Steady, Mult: mult, Dur: 4 * time.Millisecond}}
		return Run(sc).Phases[0].Shed[BG]
	}
	for seed := uint64(0); seed < 3; seed++ {
		if n := bgShed(1.55, seed); n != 0 {
			t.Errorf("seed %d: 1.55x (background under the cap) shed %d background ops, want 0", seed, n)
		}
	}
	if n := bgShed(2.0, 0); n == 0 {
		t.Error("2.0x (background over the cap) shed no background op: admission does not bind")
	}
}

// foregroundTail fails t unless the scenario's foreground p99 stays
// within bound in every phase on seeds 0–2 at testScale.
func foregroundTail(t *testing.T, mk func() Scenario, bound time.Duration) {
	t.Helper()
	for seed := uint64(0); seed < 3; seed++ {
		sc := mk().Scaled(testScale)
		sc.Seed += seed
		for _, ph := range Run(sc).Phases {
			if p99 := ph.P99[FG]; p99 > bound {
				t.Errorf("seed %d %s: fg p99 %v, bound %v", seed, ph.Name, p99, bound)
			}
		}
	}
}

// The foreground tail tests bound each fleet scenario's foreground p99
// at the measured worst phase plus one sketch bucket. A shard's reaper
// waits for foreground records by UMWAIT and wakes cpu.UMWaitWake after
// each write; an Interrupt wait paid IntrDeliver + IntrHandler (2.6 µs)
// instead.

// TestPacketswitchForegroundTail bounds packetswitch (measured
// 2.94–6.91 µs; 5.38–9.73 µs with Interrupt waits).
func TestPacketswitchForegroundTail(t *testing.T) {
	foregroundTail(t, Packetswitch, 7424*time.Nanosecond)
}

// TestBrokerForegroundTail bounds msgbroker. Each broker burst is one
// bulk batch of eight children; they win engines at their WQ's priority,
// so a foreground op on the express WQ waits at most for the next engine
// release, not for every queued child (measured 2.18–3.46 µs; 4.35–5.89
// µs with Interrupt waits, 6.91–43.01 µs while children jumped ahead of
// every WQ).
func TestBrokerForegroundTail(t *testing.T) {
	foregroundTail(t, Msgbroker, 3712*time.Nanosecond)
}

// TestChaosScenarioFaultRecovery pins the chaos phase run's contract at
// test scale: fault injection is seed-deterministic (same seed, same
// result, bit for bit), the armed default recovery policy does real work
// absorbing the plan, the tails come home inside the run, and defusing
// recovery demonstrably surfaces terminal failures the armed run
// avoids. Matched by CI's fault-recovery -race pass.
func TestChaosScenarioFaultRecovery(t *testing.T) {
	sc := Chaos().Scaled(testScale)
	a := Run(sc)
	b := Run(sc)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: same seed produced different results:\n%+v\n%+v", sc.Name, a, b)
	}
	if a.Faults == 0 || a.Retries == 0 {
		t.Fatalf("faults=%d retries=%d, want both nonzero under the fault plan", a.Faults, a.Retries)
	}
	if !a.Recovered {
		t.Errorf("armed run never recovered (spent %d windows)", a.RecoveryWindows)
	}
	failed := func(r Result) int64 {
		var n int64
		for _, ph := range r.Phases {
			n += ph.Failed[FG] + ph.Failed[BG]
		}
		return n
	}
	df := sc
	df.DefuseRecovery = true
	d := Run(df)
	if af, dfN := failed(a), failed(d); dfN <= af {
		t.Errorf("defused run failed %d ops vs armed %d: recovery is not what absorbs the plan", dfN, af)
	}
}

// allocsPerArrival is a scenario's host allocation cost per arrival: the
// heap allocations of a run beyond those of a set-up-only run (the same
// rig, tenants and buffers over a zero-length schedule), divided by the
// arrivals.
func allocsPerArrival(t *testing.T, sc Scenario) float64 {
	t.Helper()
	setup := sc
	setup.Phases = []Phase{{Name: "setup", Kind: Steady, Mult: 1}}
	mallocs := func(sc Scenario) (uint64, Result) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := Run(sc)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, res
	}
	base, _ := mallocs(setup)
	total, res := mallocs(sc)
	var arrivals float64
	for pi, ph := range res.Phases {
		for _, kops := range ph.Offered {
			arrivals += math.Round(kops * sc.Phases[pi].Dur.Seconds() * 1e3)
		}
	}
	if arrivals == 0 {
		t.Fatal("the run generated no arrivals")
	}
	perOp := float64(total-base) / arrivals
	t.Logf("%.3f allocations per arrival over %.0f arrivals", perOp, arrivals)
	return perOp
}

// allocScale runs the allocation pins long enough that what a run grows
// once — pools sized to the peak in flight, broker pipelines compiled per
// concurrent burst — no longer dominates the per-arrival figure.
const allocScale = 1

// The allocation pins hold each fleet workload's host allocations per
// arrival, over set-up, near zero. Every per-operation object has one owner
// and one free list: the reaper releases each Future with its Completion,
// the device recycles the plane's hooked Completions, batch state travels
// with its parent's Completion, the plane publishes routing occupancy in
// place, and shed errors are built once. What remains is what grows with
// the peak number of operations in flight (pools, broker pipelines and
// their scratch) and the replacement tenants churn binds.

// TestFleetArrivalAllocBudget pins packetswitch: Future and plane traffic.
func TestFleetArrivalAllocBudget(t *testing.T) {
	const budget = 0.06 // measured 0.024
	if perOp := allocsPerArrival(t, Packetswitch().Scaled(allocScale)); perOp > budget {
		t.Errorf("packetswitch allocated %.3f times per arrival over set-up, budget %.2f", perOp, budget)
	}
}

// TestFleetBrokerAllocBudget pins msgbroker: rebound broker pipelines,
// their fenced batch chains and coalesced interrupt windows.
func TestFleetBrokerAllocBudget(t *testing.T) {
	const budget = 0.12 // measured 0.093
	if perOp := allocsPerArrival(t, Msgbroker().Scaled(allocScale)); perOp > budget {
		t.Errorf("msgbroker allocated %.3f times per arrival over set-up, budget %.2f", perOp, budget)
	}
}

// TestFleetChaosAllocBudget pins chaos: packetswitch traffic with fault
// retries, plane failover and shedding beside the successes.
func TestFleetChaosAllocBudget(t *testing.T) {
	const budget = 0.06 // measured 0.027
	if perOp := allocsPerArrival(t, Chaos().Scaled(allocScale)); perOp > budget {
		t.Errorf("chaos allocated %.3f times per arrival over set-up, budget %.2f", perOp, budget)
	}
}

// arrivals totals a drained run's arrivals over every phase and class.
func (d *driver) arrivals() int64 {
	var n int64
	for pi := range d.acc {
		for c := range d.acc[pi] {
			n += d.acc[pi][c].arrivals
		}
	}
	return n
}

// testRuns holds one drained run per scenario at testScale, shared by
// the tests that only read a run: the resume budget, the Result golden
// and the conservation check.
var testRuns struct {
	once sync.Once
	runs []*driver // packetswitch, msgbroker, chaos
}

// drainedTestRuns returns the shared runs, running them on first use.
func drainedTestRuns() []*driver {
	testRuns.once.Do(func() {
		for _, sc := range []Scenario{Packetswitch(), Msgbroker(), Chaos()} {
			testRuns.runs = append(testRuns.runs, run(sc.Scaled(testScale)))
		}
	})
	return testRuns.runs
}

// TestFleetResumeBudget pins the coroutine switches per arrival. A
// lane's wait for ring space, the plane drain and every fixed-latency
// step of a dispatch (descriptor prepare, portal write and its re-issues)
// or of a completion wait (interrupt delivery and handler, coalesced or
// not, and the UMWAIT wake) run as engine callbacks, and an idle reaper
// starts the wait of the future that wakes it in the same chain, so what
// still switches per arrival is the submitter's SleepUntil to the arrival
// instant and one resume per dispatch or wait. A reaper harvests every
// record already written when a wait ends, so a harvested future costs
// no resume of its own, and a broker burst resolves in its pipeline's
// driver process, which was resumed for the burst's last chain anyway,
// so no reaper is resumed for it. Msgbroker rose from 2.224 to 2.260
// when batch children began yielding to the express WQ: fewer foreground
// records are already written when a wait ends, so harvests fell from
// 680 to 554 and each op no longer harvested waits on its own. All three
// rose again when the reaper began waiting by UMWAIT (packetswitch 2.46
// → 2.57, msgbroker 2.26 → 2.34, chaos 2.46 → 2.57), for the same
// reason: a wait now ends cpu.UMWaitWake after its record is written, not
// IntrDeliver + IntrHandler after, so fewer records are written behind it
// by then. Harvests fell from 1151 to 173 on packetswitch, 554 to 28 on
// msgbroker and 1089 to 178 on chaos.
func TestFleetResumeBudget(t *testing.T) {
	budget := map[string]float64{
		"packetswitch-fleet": 2.82, // measured 2.57
		"msgbroker-fleet":    2.51, // measured 2.34
		"chaos-fleet":        2.82, // measured 2.57
	}
	for _, d := range drainedTestRuns() {
		perOp := float64(d.e.Resumes()) / float64(d.arrivals())
		t.Logf("%s: %.3f resumes per arrival over %d arrivals", d.sc.Name, perOp, d.arrivals())
		if b := budget[d.sc.Name]; perOp > b {
			t.Errorf("%s resumed %.3f times per arrival, budget %.2f", d.sc.Name, perOp, b)
		}
	}
}

// TestFleetEventBudget pins the events scheduled per arrival. Neither
// end of a plane ring polls: a pop wakes one lane waiting for ring space,
// and a drain blocked on a full WQ parks until the WQ frees a slot, so
// both schedule events per pop or per freed slot, not per poll gap. An
// engine release is scheduled only when work waits for the engine, and a
// completion wait on a record not yet written is one event from the
// record's write to the wait's end (sim.Proc.ThenWaitAfter).
func TestFleetEventBudget(t *testing.T) {
	budget := map[string]float64{
		"packetswitch-fleet": 7.15, // measured 7.144
		"msgbroker-fleet":    7.35, // measured 7.349
		"chaos-fleet":        7.16, // measured 7.153
	}
	for _, d := range drainedTestRuns() {
		perOp := float64(d.e.Scheduled()) / float64(d.arrivals())
		t.Logf("%s: %.3f events per arrival over %d arrivals", d.sc.Name, perOp, d.arrivals())
		if b := budget[d.sc.Name]; perOp > b {
			t.Errorf("%s scheduled %.3f events per arrival, budget %.2f", d.sc.Name, perOp, b)
		}
	}
}

// TestFleetResultGolden pins every virtual-time result of the three
// scenarios at testScale, seed 0, as a digest of the printed Result. A
// change that only cuts host cost must leave it alone; a change that
// moves virtual time updates it and says why. Packetswitch and chaos last
// moved when a shard's reaper began reading the records already written
// when one Interrupt wait ends without paying another delivery for each:
// futures queued behind the one it waited on now resolve at that wait's
// end, not one IntrDeliver + IntrHandler apart, so foreground latencies
// fall (full-scale packetswitch fg p99 per phase 6.91–11.78 → 5.38–8.70
// µs). Chaos also re-draws its faults, because fg retries reach the
// devices at new instants. Msgbroker last moved when broker bursts began
// resolving in their pipelines' driver processes instead of in the
// shard's reaper FIFO: a foreground op is no longer reaped only after the
// bursts queued ahead of it end (full-scale msgbroker fg p99 per phase
// 15.87–25.60 → 8.70–25.60 µs), and moved again when batch children began
// arbitrating at their WQ's priority instead of ahead of every WQ: a
// foreground descriptor no longer queues behind a burst's children
// (8.70–25.60 → 4.86–5.38 µs). All three last moved when the reapers
// began waiting for foreground records by UMWAIT instead of Interrupt:
// each op is recorded cpu.UMWaitWake after its record is written, not
// IntrDeliver + IntrHandler after (full-scale fg p99 per phase
// packetswitch 5.38–8.70 → 3.20–5.89 µs, msgbroker 4.86–5.38 →
// 2.43–2.94 µs). Chaos also re-draws its faults, because fg retries reach
// the devices at new instants.
func TestFleetResultGolden(t *testing.T) {
	golden := map[string]string{
		"packetswitch-fleet": "e7bd2de40c332049",
		"msgbroker-fleet":    "30403dfaa273aae3",
		"chaos-fleet":        "910a72711944a275",
	}
	for _, d := range drainedTestRuns() {
		sum := sha256.Sum256(fmt.Appendf(nil, "%+v", d.result()))
		got := hex.EncodeToString(sum[:8])
		if want := golden[d.sc.Name]; got != want {
			t.Errorf("%s: Result digest %s, golden %s", d.sc.Name, got, want)
		}
	}
}

// TestFleetConservesArrivals checks the driver's own books once the engine
// drains: every arrival of every phase and class ended exactly once, as a
// completion (within budget, late, or failed) or as a shed, and no
// shard's reaper left an item queued.
func TestFleetConservesArrivals(t *testing.T) {
	for _, d := range drainedTestRuns() {
		sc := d.sc
		if d.arrivals() == 0 {
			t.Fatalf("%s: no arrivals", sc.Name)
		}
		for s := range d.reapQ {
			if n := d.reapQ[s].Len(); n != 0 {
				t.Errorf("%s: shard %d's reaper left %d items queued", sc.Name, s, n)
			}
		}
		for pi, ph := range sc.Phases {
			for c := Class(0); c < nClasses; c++ {
				a := &d.acc[pi][c]
				if a.arrivals != a.done+a.shed {
					t.Errorf("%s %s class %d: %d arrivals, %d done + %d shed",
						sc.Name, ph.Name, c, a.arrivals, a.done, a.shed)
				}
			}
		}
	}
}

func TestCalibrationProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe")
	}
	for _, sc := range Scenarios() {
		sc := sc.Scaled(testScale)
		r := Run(sc)
		t.Logf("%s:", sc.Name)
		for _, ph := range r.Phases {
			t.Logf("  %-9s fg: off=%8.1f good=%8.1f shed=%6d p99=%9v | bg: off=%8.1f good=%8.1f shed=%6d p99=%9v",
				ph.Name, ph.Offered[FG], ph.Goodput[FG], ph.Shed[FG], ph.P99[FG],
				ph.Offered[BG], ph.Goodput[BG], ph.Shed[BG], ph.P99[BG])
		}
		t.Logf("  sloOk=%d sloMiss=%d", r.SLOOk, r.SLOMiss)
	}
}
