// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator's packages, checks the outputs against
// computations of its own, and prints every metric by name and unit.
//
//	perfbench --workload loft-uniform --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with every profiler off;
// --trace 1 is a separate run that also attaches perfmon and drives a
// standalone lsf.Table, and prints the per-layer metrics instead. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 21, "failed": 0, "metrics": {"setup_s": {"value": 0.0123, "unit": "s"}, ...}}
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed of the traffic generators and the lsf op stream")
	seconds := fs.Float64("seconds", 20, "measuring time; whole rounds run until it is spent")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, profilers off; 1: per-layer metrics")
	scratch := fs.String("scratch", ".bench_build/runs", "directory for the run directories the workloads export")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}

	host := captureHost()
	blob, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", blob)

	b := &bench{w: w, seed: *seed, budget: *seconds, traced: *traced == 1, scratch: *scratch, log: stdout}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintln(stdout, "CHECK FAILED:", p)
	}
	out := result{
		Correct:   len(res.problems) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   res.metrics,
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
