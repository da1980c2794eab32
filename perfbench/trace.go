package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Span kinds: one per boundary the benchmark times. Every kind but the
// request root and mutex.hold is a single call into a library layer.
const (
	kRequest = iota
	kCounterAdd
	kCounterLoad
	kFetchApply
	kFetchValue
	kMapGet
	kMapPut
	kMutexLock
	kMutexHold // lock acquired until Unlock returned; its self time is the benchmark's own code
	kMutexUnlock
	kRWRLock
	kRWRUnlock
	kRWLock
	kRWUnlock
	kSimLock
	kSimFop
	kSimTimeVary
	nKinds
)

var kindNames = [nKinds]string{
	"request", "counter.add", "counter.load", "fetchop.apply", "fetchop.value",
	"map.get", "map.put", "mutex.lock", "mutex.hold", "mutex.unlock",
	"rwmutex.rlock", "rwmutex.runlock", "rwmutex.lock", "rwmutex.unlock",
	"sim.lock", "sim.fop", "sim.timevary",
}

// driverKind reports whether a kind's self time is the benchmark's own
// code rather than a library's.
func driverKind(k int) bool { return k == kRequest || k == kMutexHold }

type span struct {
	req        uint64
	kind       uint8
	id, parent int8 // index within the request; parent -1 is the root's
	start, end int64
}

// tracer records the spans of one client's requests. Spans live in
// memory: each finished request is folded into per-kind duration and
// self-time aggregates, and every keepEvery-th request's spans are kept
// verbatim (up to keepMax requests) for writing out when the run ends.
// A nil *tracer records nothing, so untraced code paths pay one branch.
type tracer struct {
	clk       clock
	reqID     uint64
	cur       []span
	dur       [nKinds]hist
	self      [nKinds]uint64
	driver    hist // each request's time outside library calls
	keepEvery uint64
	kept      []span
	nkept     int
}

// keepMax bounds the requests a tracer keeps verbatim.
const keepMax = 2048

// newTracer returns client's tracer, which keeps every keepEvery-th
// request's spans.
func newTracer(clk clock, client int, keepEvery uint64) *tracer {
	return &tracer{clk: clk, reqID: uint64(client) << 48, cur: make([]span, 0, 16), keepEvery: keepEvery}
}

// clock reads nanoseconds: monotonic wall time since its base, or, when
// cpu is set, the process's CPU time (see processCPUNs).
type clock struct {
	base time.Time
	cpu  bool
}

func (c clock) now() int64 {
	if c.cpu {
		return processCPUNs()
	}
	return int64(time.Since(c.base))
}

// begin opens a request's root span at start.
func (t *tracer) begin(start int64) {
	if t == nil {
		return
	}
	t.reqID++
	t.cur = append(t.cur[:0], span{req: t.reqID, kind: kRequest, id: 0, parent: -1, start: start})
}

// mark closes a child span of parent that ran from start until now and
// returns now, the next span's start. Untraced, it returns 0 unread.
func (t *tracer) mark(kind, parent int, start int64) int64 {
	if t == nil {
		return 0
	}
	now := t.clk.now()
	t.add(kind, parent, start, now)
	return now
}

// add records a finished child span and returns its index, the parent
// index its own children name.
func (t *tracer) add(kind, parent int, start, end int64) int {
	if t == nil {
		return 0
	}
	id := len(t.cur)
	t.cur = append(t.cur, span{req: t.reqID, kind: uint8(kind), id: int8(id), parent: int8(parent), start: start, end: end})
	return id
}

// setEnd closes span id, opened with add before its children ran.
func (t *tracer) setEnd(id int, end int64) {
	if t == nil {
		return
	}
	t.cur[id].end = end
}

// now reads the clock only when tracing.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return t.clk.now()
}

// finish closes the root span at end and folds the request's spans into
// the aggregates. A span's self time is its duration minus the
// durations of its children.
func (t *tracer) finish(end int64) {
	if t == nil {
		return
	}
	t.cur[0].end = end
	var child [16]int64
	for _, s := range t.cur[1:] {
		child[s.parent] += s.end - s.start
	}
	var driver int64
	for i, s := range t.cur {
		d := s.end - s.start
		t.dur[s.kind].add(d)
		t.self[s.kind] += uint64(d - child[i])
		if driverKind(int(s.kind)) {
			driver += d - child[i]
		}
	}
	t.driver.add(driver)
	if t.reqID%t.keepEvery == 0 && t.nkept < keepMax {
		t.kept = append(t.kept, t.cur...)
		t.nkept++
	}
}

// traceAgg merges the aggregates of every client's tracer.
type traceAgg struct {
	dur    [nKinds]hist
	self   [nKinds]uint64
	driver hist
	kept   []span
}

func (a *traceAgg) merge(t *tracer) {
	for k := range t.dur {
		a.dur[k].merge(&t.dur[k])
		a.self[k] += t.self[k]
	}
	a.driver.merge(&t.driver)
	a.kept = append(a.kept, t.kept...)
}

// medianNs is the median duration of a kind's spans, 0 if none ran. A
// median, not a mean: one preempted call in ten thousand would otherwise
// dominate a figure that should read the cost of a typical call.
func (a *traceAgg) medianNs(k int) float64 { return a.dur[k].quantile(0.5) }

// libraryShare is the share of all request time spent inside library
// calls.
func (a *traceAgg) libraryShare() float64 {
	total := a.dur[kRequest].sum
	if total == 0 {
		return 0
	}
	return 1 - float64(a.driver.sum)/float64(total)
}

// write stores the kept spans as JSON lines, one span each.
func (a *traceAgg) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range a.kept {
		fmt.Fprintf(w, "{\"req\":%d,\"span\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.req, s.id, s.parent, kindNames[s.kind], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
