// Command harness is the repository benchmark. It runs four workloads —
// three fleet scenarios and one device operating point — and prints every
// end-to-end metric by name and unit, measured with tracing off, then the
// per-layer metrics: the workload's own counters and a traced ladder of
// direct calls into each layer. Every run checks its outputs and exits
// non-zero on a failed check. README.md beside this file lists the
// metrics, their bounds and what moves them.
//
// Usage:
//
//	go run ./bench/harness                          # every workload, every metric
//	go run ./bench/harness -workload chaos -seed 3  # one workload, another seed
//	go run ./bench/harness -trace 0                 # end-to-end metrics only
//	go run ./bench/harness -trace 1                 # per-layer metrics only
//	go run ./bench/harness -trace out.json          # every metric, and the ladder's spans
//
// Each workload runs in child processes (this binary re-executed), one at
// a time, with GOMAXPROCS=1: the simulator is single-threaded by design,
// and a process per measurement isolates peak RSS and heap state. The
// last line of standard output is one JSON object: correct, attempted,
// failed, metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"
)

func main() {
	workload := flag.String("workload", "", "run only this workload: packetswitch, msgbroker, chaos or device-4k (default: all)")
	seed := flag.Uint64("seed", 0, "seed offset added to each workload's built-in seed")
	seconds := flag.Int("seconds", 10, "least host seconds each workload's timed repeats run")
	trace := flag.String("trace", "", "0: end-to-end metrics only; 1: per-layer metrics only; FILE: every metric, and the first workload's ladder spans written to FILE as Chrome trace-event JSON (default: every metric)")
	child := flag.String("child", "", "internal: measure this workload in this process")
	flag.Parse()

	if *child != "" {
		os.Exit(runChild(*child, *seed, time.Duration(*seconds)*time.Second, *trace))
	}

	names := workloads
	if *workload != "" {
		if !slices.Contains(workloads, *workload) {
			fmt.Fprintf(os.Stderr, "harness: unknown workload %q (want one of %v)\n", *workload, workloads)
			os.Exit(2)
		}
		names = []string{*workload}
	}
	// A measurement is untraced ("0") or traced ("1", or a span file).
	modes := []string{"0", "1"}
	switch *trace {
	case "0", "1":
		modes = []string{*trace}
	case "":
	default:
		modes[1] = *trace
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "harness:", err)
		os.Exit(1)
	}

	summary := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for i, name := range names {
		for _, mode := range modes {
			if i > 0 && mode != "0" {
				mode = "1" // the ladder is the same on every workload: one span file is enough
			}
			res, err := spawn(self, name, *seed, *seconds, mode)
			if err != nil {
				fmt.Fprintf(os.Stderr, "harness: %s: %v\n", name, err)
				os.Exit(1)
			}
			printResult(res)
			summary.Correct = summary.Correct && res.Correct
			summary.Attempted += res.Attempted
			summary.Failed += res.Failed
			for k, m := range res.Metrics {
				if len(names) > 1 {
					k = name + "." + k
				}
				summary.Metrics[k] = m
			}
		}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "harness:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !summary.Correct {
		os.Exit(1)
	}
}

// spawn measures one workload in a child process and returns its result.
func spawn(self, name string, seed uint64, seconds int, trace string) (*result, error) {
	cmd := exec.Command(self, "-child", name,
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", trace)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("child output unreadable (exit: %v): %w", runErr, err)
	}
	return &res, nil
}

// runChild measures one workload, untraced when trace is "0", and writes
// its result as JSON to standard output. It returns the process exit code.
func runChild(name string, seed uint64, seconds time.Duration, trace string) int {
	if !slices.Contains(workloads, name) {
		fmt.Fprintf(os.Stderr, "harness: unknown workload %q\n", name)
		return 2
	}
	runtime.GOMAXPROCS(1)
	res, tr := measure(name, defaultConfig(seconds), seed, trace != "0")
	if tr != nil && trace != "1" {
		if err := tr.write(trace); err != nil {
			res.fail(0, fmt.Errorf("trace file: %w", err))
		}
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.fail(0, fmt.Errorf("metric %s is not finite", k))
			res.Metrics[k] = metric{0, m.Unit}
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "harness:", err)
		return 1
	}
	return 0
}

// printResult renders one workload's notes and metrics for a reader.
func printResult(res *result) {
	fmt.Printf("== %s (correct=%v, attempted=%d, failed=%d)\n", res.Workload, res.Correct, res.Attempted, res.Failed)
	for _, n := range res.Notes {
		fmt.Println("  " + n)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Printf("  %-32s %16.6g %s\n", k, m.Value, m.Unit)
	}
}
