// Command perfbench is the repository's end-to-end benchmark. It drives
// the public API of every layer directly from one process: the reactive
// Map, Mutex, RWMutex, Counter and FetchOp, the reactivehttp registry,
// and the simulator's figure entry points in internal/experiments. Load
// is closed-loop with one client goroutine per CPU and no timers inside
// a workload. See README.md for the workloads, the metrics and how to
// run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricSpec names a metric and its unit. The tables below are the
// metrics BENCHMARK.json lists, in order.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"ops_per_s", "1/s"},
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
	{"alloc_bytes_per_op", "B"},
	{"max_rss_mb", "MB"},
	{"setup_s", "s"},
	{"regen_s", "s"},
}

var perLayer = func() []metricSpec {
	ms := []metricSpec{
		{"map.get_ns", "ns"}, {"map.get_p99_ns", "ns"}, {"map.switches_per_s", "1/s"},
		{"map.locked_share", "ratio"}, {"map.sharded_share", "ratio"}, {"map.epoch_share", "ratio"},
		{"map.put_ns", "ns"}, {"map.put_p99_ns", "ns"}, {"map.graces", "count"}, {"map.quiet_graces", "count"},
		{"mutex.lock_ns", "ns"}, {"mutex.hold_ns", "ns"}, {"mutex.switches_per_s", "1/s"}, {"mutex.park_share", "ratio"},
		{"counter.add_ns", "ns"}, {"fetchop.apply_ns", "ns"}, {"counter.load_ns", "ns"}, {"fetchop.value_ns", "ns"},
		{"counter.switches", "count"}, {"fetchop.switches", "count"},
		{"rwmutex.rlock_ns", "ns"}, {"rwmutex.lock_ns", "ns"}, {"rwmutex.reader_switches", "count"},
		{"rwmutex.epoch_share", "ratio"}, {"rwmutex.graces", "count"},
		{"reactivehttp.snapshot_ns", "ns"},
		{"driver.self_ns", "ns"}, {"driver.library_share", "ratio"},
	}
	seen := map[string]bool{}
	for _, p := range simPoints() {
		if n := p.metricName(); !seen[n] {
			seen[n] = true
			ms = append(ms, metricSpec{n, "s"})
		}
	}
	return append(ms, metricSpec{"trace.overhead_pct", "%"}, metricSpec{"control.ops_per_s", "1/s"})
}()

// cfg is one invocation's settings.
type cfg struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string // directory for the kept trace spans
	clients  int
	clk      clock
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

// winNs is the KV workloads' window length.
const winNs = int64(250 * time.Millisecond)

var workloads = map[string]func(c *cfg) *outcome{
	"kv-read":     func(c *cfg) *outcome { return runKV(c, 5) },
	"phase-shift": runPhaseShift,
	"sim-figures": runSimFigures,
}

func main() {
	os.Exit(run())
}

func run() int {
	var c cfg
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload: kv-read, phase-shift or sim-figures")
	flag.Uint64Var(&c.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&c.seconds, "seconds", 40, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.StringVar(&c.out, "out", ".bench_build", "directory for trace span files")
	writeGolden := flag.String("write-golden", "", "compute the simulator figure points and write them to this file, then exit")
	flag.Parse()
	if *writeGolden != "" {
		return writeGoldenFile(*writeGolden)
	}
	w := workloads[c.workload]
	if w == nil || c.seconds < 1 || trace < 0 || trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (kv-read, phase-shift, sim-figures), -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	c.trace = trace == 1
	c.clients = runtime.NumCPU()
	runtime.GOMAXPROCS(c.clients)
	c.clk = clock{base: time.Now()}

	o := w(&c)

	specs := endToEnd
	if c.trace {
		specs = perLayer
	}
	metrics := map[string]any{}
	for _, s := range specs {
		v, ok := o.metrics[s.name]
		if !ok && !c.trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", c.workload, s.name)
			return 1
		}
		metrics[s.name] = map[string]any{"value": v, "unit": s.unit}
	}
	o.report["run"] = runInfo(&c)
	if o.fails.n > 0 {
		o.report["first_failures"] = o.fails.messages()
	}
	printJSON(map[string]any{"report": o.report})
	printJSON(map[string]any{
		"correct":   o.fails.n == 0,
		"attempted": max(o.attempted, 1),
		"failed":    o.fails.n,
		"metrics":   metrics,
	})
	if o.fails.n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d correctness failures\n", o.fails.n)
		return 1
	}
	return 0
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, strings and numbers are marshalled
	}
	fmt.Println(string(b))
}

func runInfo(c *cfg) map[string]any {
	return map[string]any{
		"workload":      c.workload,
		"seed":          c.seed,
		"seconds":       c.seconds,
		"trace":         c.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"clients":       c.clients,
		"go":            runtime.Version(),
		"commit":        gitCommit(),
		"source_sha256": sourceDigest(),
	}
}

// writeGoldenFile computes every figure point and writes the golden file.
func writeGoldenFile(path string) int {
	var b []byte
	for _, p := range simPoints() {
		b = append(b, p.line(p.eval())+"\n"...)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// tracePath is where a traced run writes its kept spans.
func tracePath(c *cfg) string {
	return filepath.Join(c.out, "trace-"+c.workload+".jsonl")
}

// writeSpans writes the kept spans, reporting the file or the failure.
func writeSpans(c *cfg, agg *traceAgg, o *outcome) {
	sort.Slice(agg.kept, func(i, j int) bool { return agg.kept[i].start < agg.kept[j].start })
	if err := agg.write(tracePath(c)); err != nil {
		o.report["trace_file_error"] = err.Error()
		return
	}
	o.report["trace_file"] = tracePath(c)
	o.report["trace_spans"] = len(agg.kept)
}
