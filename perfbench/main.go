// Command perfbench is the repository's benchmark.  It measures the
// figure sweep in-process and a spawned axmemod daemon over loopback
// HTTP, checks every output, and prints one JSON result as the last
// line of standard output.  Build and run it from the repository root
// with perfbench/run.sh:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run measures the workload plainly, then again through
// the benchmark's timing wrappers, prints both side by side, runs the
// per-layer probes and reports the per-layer metrics.  README.md in
// this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"axmemo/internal/harness"
)

// def names a reported metric and its unit.
type def struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports, on every workload.
var endToEnd = []def{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"reread_p50_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics a --trace 1 run reports, on every workload.
var perLayer = []def{
	{"harness.cell_ms.p50", "ms"},
	{"harness.cell_ms.p90", "ms"},
	{"harness.setup_ms.p50", "ms"},
	{"harness.alloc_kb_per_cell", "KiB"},
	{"harness.gc_cpu_frac", "ratio"},
	{"harness.sched_idle_frac", "ratio"},
	{"harness.runcell_hit_us", "us"},
	{"cpu.exec_ns_per_insn", "ns"},
	{"bytecode.hotloop_ns_per_insn", "ns"},
	{"sim.insns", "count"},
	{"sim.cycles", "count"},
	{"memo.lookups_per_kinsn", "count"},
	{"memo.hit_ratio", "ratio"},
	{"mem.l1d_miss_ratio", "ratio"},
	{"mem.l2_miss_ratio", "ratio"},
	{"server.handler_us.p50", "us"},
	{"server.self_us", "us"},
	{"client.open_p50_ms", "ms"},
	{"client.open_p90_ms", "ms"},
	{"client.net_us", "us"},
	{"client.late_ms.p50", "ms"},
	{"client.late_ms.p90", "ms"},
	{"store.put_ms.p50", "ms"},
	{"store.get_us.p50", "us"},
	{"store.open_ms", "ms"},
	{"axmemod.boot_ms", "ms"},
}

// env is what every workload needs from the command line.
type env struct {
	root    string // repository root (goldens are read from it)
	axmemod string // daemon binary
	scratch string // this run's private scratch directory
	seed    int64
	seconds time.Duration
	daemons []*daemon // every daemon started, for killAll
}

// killAll stops any daemon still running.
func (e *env) killAll() {
	for _, d := range e.daemons {
		d.kill()
	}
}

// measurement is one workload run: operation counts, check failures,
// metric values and, for percentiles, their sample counts.
type measurement struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
	samples           map[string]int

	// What the run leaves for the per-layer probes.
	results  []*harness.Result // cell results the workload produced
	storeDir string            // a store the workload filled, daemons stopped
	boots    []float64         // fresh-store daemon boots, ms
	tiers    *tiers            // tier totals of the served phases
	timed    []reply           // serve-hot's timed open-loop replies
}

func newMeasurement() *measurement {
	return &measurement{values: map[string]float64{}, samples: map[string]int{}}
}

// fail counts one failed operation and keeps the first few reasons.
func (m *measurement) fail(format string, a ...any) {
	m.failed++
	if len(m.problems) < 10 {
		m.problems = append(m.problems, fmt.Sprintf(format, a...))
	}
}

// set records a metric; n > 0 is the number of samples behind it.
func (m *measurement) set(name string, v float64, n int) {
	m.values[name] = v
	if n > 0 {
		m.samples[name] = n
	}
}

// merge adds o's counts and problems to m (values stay m's).
func (m *measurement) merge(o *measurement) {
	m.attempted += o.attempted
	m.failed += o.failed
	m.problems = append(m.problems, o.problems...)
}

// workloads maps each workload name to its run function.  A nil tracer
// is the plain run.
var workloadRuns = map[string]func(*env, *tracer) (*measurement, error){
	"sweep":      runSweep,
	"serve-hot":  runServeHot,
	"serve-cold": runServeCold,
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == probeFirstCellArg {
		os.Exit(probeFirstCell())
	}
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "sweep, serve-hot or serve-cold")
		seed     = fs.Int64("seed", 1, "workload seed")
		seconds  = fs.Int("seconds", 10, "measured seconds per run")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root     = fs.String("root", ".", "repository root")
		axmemod  = fs.String("axmemod", "", "axmemod binary")
		scratch  = fs.String("scratch", ".bench_build", "directory for per-run scratch data and traces")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	runW, ok := workloadRuns[*workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (want sweep, serve-hot or serve-cold)", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *axmemod == "" {
		return errors.New("need --seconds >= 1, --trace 0 or 1, and --axmemod")
	}
	dir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{root: *root, axmemod: *axmemod, scratch: dir, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second}
	defer e.killAll()

	plain, err := runW(e, nil)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	total := newMeasurement()
	total.merge(plain)
	defs, values := endToEnd, plain.values
	fmt.Fprintf(stdout, "workload %s  seed %d  seconds %d  trace %d\n", *workload, *seed, *seconds, *trace)
	if *trace == 1 {
		tr := newTracer()
		traced, err := runW(e, tr)
		if err != nil {
			return fmt.Errorf("%s traced: %w", *workload, err)
		}
		total.merge(traced)
		printSideBySide(stdout, plain, traced)
		layers, err := runLayers(e, traced, tr)
		if err != nil {
			return fmt.Errorf("per-layer probes: %w", err)
		}
		total.merge(layers)
		path := filepath.Join(*scratch, fmt.Sprintf("trace-%s-%d.jsonl", *workload, *seed))
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", tr.len(), path)
		defs, values = perLayer, layers.values
		printValues(stdout, "per-layer", defs, layers)
		t := layers.tiers
		fmt.Fprintf(stdout, "tiers: %d requests, %d executed, %d store hits, %d store misses\n",
			t.Requests, t.Exec, t.StoreHits, t.StoreMisses)
	} else {
		printValues(stdout, "end-to-end", defs, plain)
	}
	fmt.Fprintf(stdout, "error_rate %.6f (%d failed of %d attempted)\n",
		float64(total.failed)/float64(max(total.attempted, 1)), total.failed, total.attempted)
	for _, p := range total.problems {
		fmt.Fprintln(stdout, "check failed:", p)
	}
	return printResult(stdout, total, defs, values)
}

// printResult writes the final JSON line.  A metric the run could not
// measure is a benchmark fault, not a zero.
func printResult(w io.Writer, total *measurement, defs []def, values map[string]float64) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{total.failed == 0 && total.attempted > 0, total.attempted, total.failed, map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metric{v, d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func printValues(w io.Writer, title string, defs []def, m *measurement) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-30s %14.6g %-5s %s\n", d.name, m.values[d.name], d.unit, sampleNote(m, d.name))
	}
}

// printSideBySide shows the plain and traced end-to-end numbers; their
// difference is the tracing overhead.
func printSideBySide(w io.Writer, plain, traced *measurement) {
	fmt.Fprintf(w, "end-to-end, plain vs traced (difference = tracing overhead):\n")
	fmt.Fprintf(w, "  %-16s %12s %12s %12s %8s\n", "metric", "plain", "traced", "diff", "diff%")
	for _, d := range endToEnd {
		p, t := plain.values[d.name], traced.values[d.name]
		fmt.Fprintf(w, "  %-16s %12.6g %12.6g %+12.6g %+7.1f%% %s\n", d.name, p, t, t-p, 100*(t-p)/p, sampleNote(plain, d.name))
	}
}

func sampleNote(m *measurement, name string) string {
	if n, ok := m.samples[name]; ok {
		return fmt.Sprintf("(n=%d)", n)
	}
	return ""
}
