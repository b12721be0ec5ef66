// Command perfbench is the repository's benchmark for the Cartesian
// collectives. It runs one closed-loop workload (or all four with
// --workload all) in a single process, checks every result, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
// (--trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload a2a-small --seed 1 --seconds 15 --trace 0
//
// Every payload and the initial stencil field derive from --seed, so a
// seed fixes the inputs. Timing, allocation and layer metrics are
// documented next to the code that measures them (measure.go, layers.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"cartcc/internal/mpi"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Uint64("seed", 1, "seed of every generated payload and field")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs traced and reports per-layer metrics")
	flag.Parse()
	if flag.NArg() != 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		flag.Usage()
		return 2
	}
	var wls []*workload
	if *name == "all" {
		wls = workloads
	} else if wl := findWorkload(*name); wl != nil {
		wls = []*workload{wl}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	// The traced run's span files go beside the build (run.sh sets
	// PERFBENCH_OUT to its output directory).
	traceOut := os.Getenv("PERFBENCH_OUT")
	if traceOut == "" {
		traceOut = ".bench_build"
	}
	// The environment must not reroute the loopback workloads over a
	// socket: the backend is part of each workload's definition.
	os.Unsetenv(mpi.EnvTransport)
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}

	traced := *traceFlag == 1
	printHeader(*seed, *seconds, traced)
	total := result{Correct: true, Metrics: map[string]metric{}}
	budget := time.Duration(*seconds * float64(time.Second))
	for _, wl := range wls {
		opts := runOpts{seed: *seed, budget: budget}
		if traced {
			opts.traceFile = filepath.Join(traceOut, "trace-"+wl.name+".json")
		}
		res, err := runWorkload(wl, opts, traced)
		if err != nil {
			fmt.Printf("%s: error: %v\n", wl.name, err)
			res.Correct = false
			if res.Failed == 0 {
				res.Failed = 1
			}
		}
		// An op whose output failed its check makes the run incorrect.
		res.Correct = res.Correct && res.Failed == 0
		printTable(wl, res)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(wls) > 1 {
				k = wl.name + "/" + k
			}
			total.Metrics[k] = v
		}
	}
	if total.Attempted < 1 {
		total.Attempted = 1
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// set records one metric. JSON has no encoding for NaN or infinity, so a
// non-finite value (a ratio over an empty count) is reported as -1.
func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = -1
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// printHeader states the machine and build the numbers were taken on.
func printHeader(seed uint64, seconds float64, traced bool) {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	mode := "end-to-end"
	if traced {
		mode = "traced (per-layer)"
	}
	fmt.Printf("perfbench: nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	fmt.Printf("perfbench: seed=%d seconds=%g mode=%s\n", seed, seconds, mode)
}

// printTable prints one workload's metrics, one per line, by name with
// their unit.
func printTable(wl *workload, res result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s: correct=%v attempted=%d failed=%d fail_ratio=%g\n",
		wl.name, res.Correct, res.Attempted, res.Failed, float64(res.Failed)/math.Max(1, float64(res.Attempted)))
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Printf("  %-32s %16.6g %s\n", k, m.Value, m.Unit)
	}
}
