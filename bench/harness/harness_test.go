package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// tinyConfig shrinks every knob so the whole suite runs in a few seconds.
func tinyConfig() config {
	return config{
		seeds:        1,
		maxRepeats:   2,
		phaseScale:   0.03,
		kneeScale:    0.02,
		kneeSeeds:    1,
		descriptors:  2000,
		setups:       2,
		ladderScale:  0.001,
		spansPerRung: 16,
	}
}

// benchmarkSpec is the part of BENCHMARK.json the harness must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// requireMetrics checks that res reports exactly the listed metrics, each
// with its listed unit.
func requireMetrics(t *testing.T, res *result, want []specMetric) {
	t.Helper()
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not reported", res.Workload, m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("%s: metric %s in %q, want %q", res.Workload, m.Name, got.Unit, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics reported, %d listed", res.Workload, len(res.Metrics), len(want))
	}
}

func TestEveryListedMetricIsReported(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the harness runs %v", names, workloads)
	}
	trace := filepath.Join(t.TempDir(), "trace.json")
	for i, name := range workloads {
		if names[i] != name {
			t.Fatalf("BENCHMARK.json lists workloads %v, the harness runs %v", names, workloads)
		}
		res, _ := measure(name, tinyConfig(), 0, false)
		if !res.Correct {
			t.Errorf("%s: checks failed: %v", name, res.Notes)
		}
		requireMetrics(t, res, spec.EndToEnd)
		for _, m := range spec.EndToEnd {
			if res.Metrics[m.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", name, m.Name)
			}
		}

		res, tr := measure(name, tinyConfig(), 0, true)
		if !res.Correct {
			t.Errorf("%s traced: checks failed: %v", name, res.Notes)
		}
		requireMetrics(t, res, spec.PerLayer)
		if i == 0 {
			if err := tr.write(trace); err != nil {
				t.Fatal(err)
			}
		}
	}

	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	ids := map[int]bool{0: true}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 || ev.Args.VirtEndNs < ev.Args.VirtStartNs {
			t.Fatalf("malformed span %+v", ev)
		}
		if !ids[ev.Args.Parent] {
			t.Fatalf("span %d names parent %d before it was recorded", ev.Args.ID, ev.Args.Parent)
		}
		ids[ev.Args.ID] = true
	}
	if len(doc.TraceEvents) <= len(ladder()) {
		t.Fatalf("trace holds %d spans for %d rungs", len(doc.TraceEvents), len(ladder()))
	}
}

// simMetrics are the end-to-end metrics computed in virtual time.
var simMetrics = []string{"sim_kops", "fg_p99_us", "served_frac"}

func TestSimMetricsDependOnlyOnSeed(t *testing.T) {
	cfg := tinyConfig()
	a, _ := measure("packetswitch", cfg, 0, false)
	b, _ := measure("packetswitch", cfg, 0, false)
	c, _ := measure("packetswitch", cfg, 1, false)
	differs := false
	for _, m := range simMetrics {
		if a.Metrics[m] != b.Metrics[m] {
			t.Errorf("%s: %v then %v at the same seed", m, a.Metrics[m], b.Metrics[m])
		}
		differs = differs || a.Metrics[m] != c.Metrics[m]
	}
	if !differs {
		t.Errorf("sim metrics %v identical under seeds 0 and 1", simMetrics)
	}
}

func TestCorruptedDestinationFailsVerification(t *testing.T) {
	rig := newDeviceRig(0)
	out := rig.run(500)
	if err := rig.verify(out); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	rig.dst.Bytes()[devXfer+17] ^= 0xFF
	if err := rig.verify(out); err == nil {
		t.Fatal("a corrupted destination byte passed verification")
	}
}
