package main

import (
	_ "embed"
	"fmt"
	"runtime"
	"slices"
	"strings"

	"repro/internal/experiments"
)

// Simulator sizes for the figure points: Figure 3.15's 32-node machine
// with a short critical-section loop, and Figure 3.21's time-varying
// test with short periods.
const (
	simMachine   = 32
	simIters     = 2
	simPeriodLen = 256
	simPeriods   = 1
)

// simPoint is one figure point: a spin-lock or fetch-and-op overhead at
// a contention level (Figure 3.15), or a time-varying contention run at
// a contention percentage (Figure 3.21).
type simPoint struct {
	kind  int // kSimLock, kSimFop or kSimTimeVary
	proto string
	arg   int
}

var (
	simLockProtos = []string{"test&set", "test&test&set", "mcs-queue", "mp-queue", "reactive"}
	simFopProtos  = []string{"tts-lock", "queue-lock", "combining-tree", "reactive"}
	simTVAlgs     = []string{"test&set", "mcs-queue", "reactive"}
)

// simPoints lists the figure points, the costliest first, so workers
// pulling from the front finish a pass close together.
func simPoints() []simPoint {
	var ps []simPoint
	for _, c := range []int{32, 16} {
		for _, p := range simLockProtos {
			ps = append(ps, simPoint{kSimLock, p, c})
		}
		for _, p := range simFopProtos {
			ps = append(ps, simPoint{kSimFop, p, c})
		}
	}
	for _, pct := range []int{90, 50, 10} {
		for _, a := range simTVAlgs {
			ps = append(ps, simPoint{kSimTimeVary, a, pct})
		}
	}
	for _, c := range []int{4, 1} {
		for _, p := range simLockProtos {
			ps = append(ps, simPoint{kSimLock, p, c})
		}
		for _, p := range simFopProtos {
			ps = append(ps, simPoint{kSimFop, p, c})
		}
	}
	return ps
}

func (p simPoint) eval() uint64 {
	switch p.kind {
	case kSimLock:
		return experiments.LockOverhead(p.proto, simMachine, p.arg, simIters)
	case kSimFop:
		return experiments.FopOverhead(p.proto, simMachine, p.arg, simIters)
	default:
		return experiments.TimeVaryElapsed(p.proto, simPeriodLen, p.arg, simPeriods)
	}
}

func (p simPoint) key() string { return fmt.Sprintf("%s %s %d", kindNames[p.kind], p.proto, p.arg) }

// line is the point's golden-file line for result v.
func (p simPoint) line(v uint64) string { return fmt.Sprintf("%s %d", p.key(), v) }

// metricName is the per-layer metric a point's time is summed into.
func (p simPoint) metricName() string {
	return kindNames[p.kind] + "." + strings.NewReplacer("&", "-and-").Replace(p.proto) + "_s"
}

//go:embed sim_golden.txt
var simGolden string

// goldenLines maps each point's key to its golden line.
func goldenLines() map[string]string {
	g := map[string]string{}
	for _, l := range strings.Split(strings.TrimSpace(simGolden), "\n") {
		if i := strings.LastIndexByte(l, ' '); i > 0 {
			g[l[:i]] = l
		}
	}
	return g
}

// simPass computes every point once, costliest first, and checks each
// against its golden line. took[i] is point i's time in ns on clk. Points
// run one at a time: the simulator hands control between a goroutine per
// simulated processor, so one machine keeps one CPU busy, and on the
// 2-vCPU reference host a second worker added no throughput, doubled
// each point's time and made it depend on which point ran beside it.
func simPass(points []simPoint, golden map[string]string, clk clock, tr *tracer) (took []int64, fails failures) {
	took = make([]int64, len(points))
	for i, p := range points {
		t0 := clk.now()
		tr.begin(t0)
		got := p.line(p.eval())
		t1 := clk.now()
		tr.add(p.kind, 0, t0, t1)
		tr.finish(t1)
		took[i] = t1 - t0
		if want := golden[p.key()]; got != want {
			fails.add(fmt.Errorf("simulator point %q, golden %q", got, want))
		}
	}
	return took, fails
}

// simWarm is the set-up warm-up: the points at contention 4 or less.
func simWarm(points []simPoint) []simPoint {
	var w []simPoint
	for _, p := range points {
		if p.kind != kSimTimeVary && p.arg <= 4 {
			w = append(w, p)
		}
	}
	return w
}

// simSetup reads the golden file, checks it covers every point, and
// warms the simulator on the cheap points.
func simSetup(c *cfg, points []simPoint, o *outcome) map[string]string {
	golden := goldenLines()
	for _, p := range points {
		if _, ok := golden[p.key()]; !ok {
			o.fails.add(fmt.Errorf("simulator point %q has no golden value", p.key()))
		}
	}
	_, f := simPass(simWarm(points), golden, c.clk, nil)
	o.fails.merge(&f)
	return golden
}

// simWindow runs one pass over points as one window of s and returns
// the pass's per-point times.
func simWindow(c *cfg, points []simPoint, golden map[string]string, s *series, tr *tracer, o *outcome) []int64 {
	t0, m0 := c.clk.now(), readMark()
	took, f := simPass(points, golden, c.clk, tr)
	d, m1 := secs(c.clk.now()-t0), readMark()
	o.fails.merge(&f)
	var lat hist
	for _, ns := range took {
		lat.add(ns)
	}
	s.addWindow(d, m0, m1, &lat)
	return took
}

// simOnOneCPU runs f with GOMAXPROCS 1 and a copy of c whose clock is
// the process's CPU time. The simulator runs one simulated processor at a
// time, handing control between their goroutines, so a second P adds no
// work: it only spins waiting for the next handoff and pulls goroutines
// across vCPUs. The CPU clock leaves out time the hypervisor stole, which
// on this one busy thread would otherwise be added to every point.
func simOnOneCPU(c *cfg, f func(sc *cfg)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sc := *c
	sc.clk = clock{cpu: true}
	f(&sc)
}

func runSimFigures(c *cfg) *outcome {
	o := newOutcome()
	o.report["sim"] = map[string]any{"gomaxprocs": 1, "clock": "process CPU time"}
	points := simPoints()
	dur := int64(c.seconds) * 1e9
	if c.trace {
		traceSim(c, o, points, dur)
		return o
	}
	simOnOneCPU(c, func(sc *cfg) {
		var golden map[string]string
		var setups []float64
		setup := func() {
			t0 := sc.clk.now()
			golden = simSetup(sc, points, o)
			setups = append(setups, secs(sc.clk.now()-t0))
		}
		// One set-up before the passes and one after each, so the
		// set-ups sample the host across the whole run, as the passes do.
		setup()
		var s series
		var took [][]int64
		for stop := sc.clk.now() + dur; len(took) == 0 || sc.clk.now() < stop; setup() {
			took = append(took, simWindow(sc, points, golden, &s, nil, o))
		}
		o.endToEnd(&s, int64(len(took)*len(points)), setups, 0)
		o.simBest(bestOf(took), setups) // replaces the timed metrics
	})
	return o
}

// bestOf returns each point's fastest time over the passes, in ns.
func bestOf(took [][]int64) []int64 {
	best := slices.Clone(took[0])
	for _, t := range took[1:] {
		for i, ns := range t {
			best[i] = min(best[i], ns)
		}
	}
	return best
}

// simBest sets the timed end-to-end metrics from the fastest of the
// run's set-ups and each point's fastest time over the run's passes.
// Every pass and every set-up does the same simulated work and must give
// the same bytes, so what varies between them is the host: a slower one
// is one the host slowed down. On a shared host whose single-thread
// speed switches between two levels a third apart, for a second or for
// minutes, the medians flipped between the levels; the fastest times
// did not. regen_s is the sum of the points' fastest times, ops_per_s
// the points per second at that rate, and the latency quantiles are
// taken over the points' fastest times (nearest rank: p99 is the
// slowest point).
func (o *outcome) simBest(best []int64, setups []float64) {
	sorted := slices.Sorted(slices.Values(best))
	var sum int64
	for _, ns := range sorted {
		sum += ns
	}
	o.metrics["setup_s"] = slices.Min(setups)
	o.metrics["regen_s"] = secs(sum)
	o.metrics["ops_per_s"] = float64(len(best)) / secs(sum)
	o.metrics["lat_p50_us"] = float64(sorted[nearestRank(0.50, len(sorted))-1]) / 1e3
	o.metrics["lat_p99_us"] = float64(sorted[nearestRank(0.99, len(sorted))-1]) / 1e3
}

// traceSim alternates untraced and traced passes for two thirds of the
// run, then runs the host-speed control for the last third.
func traceSim(c *cfg, o *outcome, points []simPoint, dur int64) {
	tr := newTracer(clock{cpu: true}, 0, 1)
	var plain, traced, control series
	var tracedTook [][]int64
	passes := 0
	simOnOneCPU(c, func(sc *cfg) {
		golden := simSetup(sc, points, o)
		stop := sc.clk.now() + dur*2/3
		for len(tracedTook) == 0 || sc.clk.now() < stop {
			simWindow(sc, points, golden, &plain, nil, o)
			tracedTook = append(tracedTook, simWindow(sc, points, golden, &traced, tr, o))
			passes += 2
		}
	})
	o.attempted = int64(passes * len(points))
	sortControl(c, dur/3, &control)
	var agg traceAgg
	agg.merge(tr)
	for i, ns := range bestOf(tracedTook) {
		o.metrics[points[i].metricName()] += secs(ns)
	}
	o.driverMetrics(&agg)
	o.traceSummary(&plain, &traced, &control)
	writeSpans(c, &agg, o)
}

// sortControl is sim-figures' host-speed control, which has no stdlib
// counterpart: each client sorts a copy of a seeded slice, closed-loop,
// for durNs in windows of winNs. An op is one sort of 4096 values.
func sortControl(c *cfg, durNs int64, s *series) {
	rng := streamRNG(c.seed, 0)
	src := make([]int64, 1<<12)
	for i := range src {
		src[i] = int64(rng.next())
	}
	bufs := make([][]int64, c.clients)
	for i := range bufs {
		bufs[i] = make([]int64, len(src))
	}
	windowSlice(c.clients, c.clk, max(1, int(durNs/winNs)), s, func(i int, _ int64) int64 {
		copy(bufs[i], src)
		slices.Sort(bufs[i])
		return c.clk.now()
	})
}
