package main

import "repro/reactive"

// outcome is what a workload run reports.
type outcome struct {
	attempted int64
	fails     failures
	metrics   map[string]float64
	report    map[string]any // context printed next to the metrics
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, report: map[string]any{}}
}

// keepStride is the KV and phase-shift tracers' sampling stride for the
// spans written out; every simulator point's spans are kept.
const keepStride = 64

// traceRounds is how many times a traced run alternates its untraced,
// traced and control slices, so host drift hits all three alike.
const traceRounds = 2

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// overheadPct is how much slower the traced slices ran, in percent of
// the untraced rate.
func overheadPct(plain, traced float64) float64 {
	if plain == 0 {
		return 0
	}
	return (plain - traced) / plain * 100
}

// endToEnd fills the metrics every workload reports from an untraced
// run of ops operations.
func (o *outcome) endToEnd(s *series, ops int64, setups []float64, regen float64) {
	o.attempted += ops
	o.metrics["ops_per_s"] = s.opsPerS()
	o.metrics["lat_p50_us"] = s.quantileUs(0.50)
	o.metrics["lat_p99_us"] = s.quantileUs(0.99)
	o.metrics["alloc_bytes_per_op"] = s.allocPerOp()
	o.metrics["max_rss_mb"] = maxRSSMB()
	o.metrics["setup_s"] = median(setups)
	o.metrics["regen_s"] = regen
	o.report["samples"] = map[string]any{
		"ops":         ops,
		"windows":     len(s.wins),
		"steal_share": s.stealShare(),
		"latencies":   s.ops(),
		"setup_s":     setups,
		"window_s":    s.windowS(),
	}
}

// layerMetrics fills the per-layer metrics of the reactive primitives
// from a traced slice set: span aggregates, mode residency, and the
// switch counters over tracedS seconds.
func (o *outcome) layerMetrics(agg *traceAgg, res *residency, n switchCounts, tracedS float64) {
	m := o.metrics
	m["map.get_ns"] = agg.medianNs(kMapGet)
	m["map.get_p99_ns"] = agg.dur[kMapGet].quantile(0.99)
	m["map.put_ns"] = agg.medianNs(kMapPut)
	m["map.put_p99_ns"] = agg.dur[kMapPut].quantile(0.99)
	m["map.switches_per_s"] = float64(n.Map) / tracedS
	m["map.locked_share"] = res.share("map", reactive.ModeLocked)
	m["map.sharded_share"] = res.share("map", reactive.ModeSharded)
	m["map.epoch_share"] = res.share("map", reactive.ModeEpoch)
	m["map.graces"] = float64(n.MapGraces)
	m["map.quiet_graces"] = float64(n.MapQuiet)
	m["mutex.lock_ns"] = agg.medianNs(kMutexLock)
	m["mutex.hold_ns"] = agg.medianNs(kMutexHold)
	m["mutex.switches_per_s"] = float64(n.Mutex) / tracedS
	m["mutex.park_share"] = res.share("mutex", reactive.ModePark)
	m["counter.add_ns"] = agg.medianNs(kCounterAdd)
	m["counter.load_ns"] = agg.medianNs(kCounterLoad)
	m["fetchop.apply_ns"] = agg.medianNs(kFetchApply)
	m["fetchop.value_ns"] = agg.medianNs(kFetchValue)
	m["counter.switches"] = float64(n.Counter)
	m["fetchop.switches"] = float64(n.FetchOp)
	m["rwmutex.rlock_ns"] = agg.medianNs(kRWRLock)
	m["rwmutex.lock_ns"] = agg.medianNs(kRWLock)
	m["rwmutex.reader_switches"] = float64(n.RWReaders)
	m["rwmutex.epoch_share"] = res.share("rwmutex.readers", reactive.ModeEpoch)
	m["rwmutex.graces"] = float64(n.RWGraces)
	m["reactivehttp.snapshot_ns"] = res.snap.quantile(0.5)
	o.driverMetrics(agg)
	o.report["switches"] = n
	o.report["residency"] = residencyReport(res)
}

func (o *outcome) driverMetrics(agg *traceAgg) {
	o.metrics["driver.self_ns"] = agg.driver.quantile(0.5)
	o.metrics["driver.library_share"] = agg.libraryShare()
	spans := map[string]any{}
	for k := range agg.dur {
		if h := &agg.dur[k]; h.n > 0 {
			spans[kindNames[k]] = map[string]any{"n": h.n, "p50_ns": h.quantile(0.5), "mean_ns": h.mean(), "p99_ns": h.quantile(0.99), "mean_self_ns": float64(agg.self[k]) / float64(h.n)}
		}
	}
	o.report["spans"] = spans
}

func (o *outcome) traceSummary(plain, traced, control *series) {
	o.metrics["trace.overhead_pct"] = overheadPct(plain.opsPerS(), traced.opsPerS())
	o.metrics["control.ops_per_s"] = control.opsPerS()
	o.report["untraced_ops_per_s"] = plain.opsPerS()
	o.report["traced_ops_per_s"] = traced.opsPerS()
	o.report["windows"] = map[string]int{"untraced": len(plain.wins), "traced": len(traced.wins), "control": len(control.wins)}
	o.report["steal_share"] = map[string]float64{"untraced": plain.stealShare(), "traced": traced.stealShare(), "control": control.stealShare()}
}
