// Command perfbench is odeprotod's end-to-end and per-layer benchmark.
//
// It builds the real odeprotod binary (the build is not timed), launches
// the daemon(s) as child processes with their shipping flags, and drives
// one named workload from two closed-loop clients — one in-flight request
// each. Jobs complete through their /stream, never by polling. A run
// checks every output it receives and prints one JSON result as its last
// line:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run repeats the measured window with client spans on and
// adds direct calls into each layer, and the result carries the
// per-layer metrics. See manifest.json for what each metric means, which
// workloads report it, and which end-to-end metric each layer metric
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload: sweep, small-jobs or durable-mix")
		seed     = fs.Int64("seed", 1, "seed the generated inputs derive from")
		seconds  = fs.Int("seconds", 10, "length of the measured window")
		trace    = fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
		root     = fs.String("root", ".", "repository checkout to build odeprotod from")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{root: abs, wl: *workload, spec: workloads[*workload], seed: *seed,
		seconds: *seconds, traced: *trace == 1, hc: newHTTPClient()}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildDaemon compiles cmd/odeprotod from the checkout into the run's
// build directory.
func buildDaemon(root, out string) (string, error) {
	bin := filepath.Join(out, "odeprotod")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/odeprotod")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building odeprotod: %w", err)
	}
	return bin, nil
}

// printEnv prints the environment the numbers were measured in.
func printEnv() {
	fmt.Printf("env: %s GOMAXPROCS=%d nproc=%d %s/%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
}

// report collects the metrics a run prints, in print order.
type report struct {
	names []string
	vals  map[string]metricValue
	notes map[string]string
}

func newReport() *report {
	return &report{vals: make(map[string]metricValue), notes: make(map[string]string)}
}

// set records a metric; NaN (no samples) is reported as 0 with a note.
func (r *report) set(name, unit string, v float64, note string) {
	if !validMetricName(name) {
		panic("invalid metric name " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v, note = 0, strings.TrimSpace(note+" (no samples)")
	}
	if _, ok := r.vals[name]; !ok {
		r.names = append(r.names, name)
	}
	r.vals[name] = metricValue{Value: v, Unit: unit}
	r.notes[name] = note
}

func (r *report) print(title string) {
	fmt.Printf("%s\n", title)
	for _, n := range r.names {
		v := r.vals[n]
		fmt.Printf("  %-36s %14.4f %-8s %s\n", n, v.Value, v.Unit, r.notes[n])
	}
}

// pick returns the subset of metrics named in names.
func (r *report) pick(names []string) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(names))
	for _, n := range names {
		v, ok := r.vals[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = v
	}
	return out, nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
