package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/reactive"
	"repro/reactive/reactivehttp"
)

const (
	kvKeys    = 4096
	zipfTheta = 0.99
	kvStream  = 1 << 16 // ops in each client's generated stream, replayed in a loop
	kvWarmOps = 1 << 16 // requests in each set-up's single-client warm-up
	kvWork    = 32      // iterations of the synthetic work loop in every request
	kvPass    = 1 << 16 // requests in the fixed batch regen_s times on the KV workloads
)

// kvService is the store a KV request runs against: the reactive
// primitives, or the stdlib control built from sync and atomic.
type kvService interface {
	hit()
	get(ctx context.Context, key uint64) (uint64, bool, error)
	lock(ctx context.Context) error
	appendJournal()
	unlock()
	put(ctx context.Context, key, val uint64) error
	record(lat int64)
	// check verifies the drained store against what the clients did.
	check(issued, puts, maxLat int64) error
}

// libKV composes the primitives the way internal/loadsvc.Service does: a
// hit Counter, an adaptive routing Map, a journal Mutex on the write
// path, and a max-aggregating FetchOp for request latency. Every
// primitive is left fully adaptive.
type libKV struct {
	m       *reactive.Map[uint64, uint64]
	journal *reactive.Mutex
	jlen    int64 // guarded by journal
	hits    *reactive.Counter
	peak    *reactive.FetchOp
	reg     *reactivehttp.Registry
}

func maxOp(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func newLibKV() *libKV {
	s := &libKV{
		m:       reactive.NewMap[uint64, uint64](),
		journal: reactive.New(),
		hits:    reactive.NewCounter(),
		peak:    reactive.NewFetchOp(maxOp, math.MinInt64),
		reg:     &reactivehttp.Registry{},
	}
	s.reg.Register("map", s.m)
	s.reg.Register("mutex", s.journal)
	s.reg.Register("counter", s.hits)
	s.reg.Register("fetchop", s.peak)
	return s
}

func (s *libKV) hit() { s.hits.Add(1) }
func (s *libKV) get(ctx context.Context, key uint64) (uint64, bool, error) {
	return s.m.GetCtx(ctx, key)
}
func (s *libKV) lock(ctx context.Context) error { return s.journal.LockCtx(ctx) }
func (s *libKV) appendJournal()                 { s.jlen++ }
func (s *libKV) unlock()                        { s.journal.Unlock() }
func (s *libKV) put(ctx context.Context, key, val uint64) error {
	return s.m.PutCtx(ctx, key, val)
}
func (s *libKV) record(lat int64) { s.peak.Apply(lat) }

func (s *libKV) check(issued, puts, maxLat int64) error {
	var errs []error
	if n := s.hits.Load(); n != issued {
		errs = append(errs, fmt.Errorf("Counter.Load() = %d, want %d requests issued", n, issued))
	}
	if v := s.peak.Value(); v != maxLat {
		errs = append(errs, fmt.Errorf("FetchOp.Value() = %d, want largest latency %d", v, maxLat))
	}
	s.journal.Lock()
	n := s.jlen
	s.journal.Unlock()
	if n != puts {
		errs = append(errs, fmt.Errorf("journal holds %d entries, want %d puts", n, puts))
	}
	if l := s.m.Len(); l != kvKeys {
		errs = append(errs, fmt.Errorf("Map.Len() = %d, want %d", l, kvKeys))
	}
	for _, c := range []interface{ CheckInvariants() error }{s.m, s.journal, s.hits, s.peak} {
		if err := c.CheckInvariants(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func (s *libKV) stats() layerStats {
	return layerStats{mp: s.m.MapStats(), mutex: s.journal.Stats(), counter: s.hits.Stats(), fop: s.peak.Stats()}
}

// ctlKV is the stdlib control: the same requests over a sync.RWMutex
// guarded map, a sync.Mutex journal, and atomic.Int64 hit and peak words.
type ctlKV struct {
	mu   sync.RWMutex
	m    map[uint64]uint64
	jmu  sync.Mutex
	jlen int64 // guarded by jmu
	hits atomic.Int64
	peak atomic.Int64
}

func newCtlKV() *ctlKV {
	s := &ctlKV{m: make(map[uint64]uint64, kvKeys)}
	s.peak.Store(math.MinInt64)
	return s
}

func (s *ctlKV) hit() { s.hits.Add(1) }
func (s *ctlKV) get(_ context.Context, key uint64) (uint64, bool, error) {
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	return v, ok, nil
}
func (s *ctlKV) lock(context.Context) error { s.jmu.Lock(); return nil }
func (s *ctlKV) appendJournal()             { s.jlen++ }
func (s *ctlKV) unlock()                    { s.jmu.Unlock() }
func (s *ctlKV) put(_ context.Context, key, val uint64) error {
	s.mu.Lock()
	s.m[key] = val
	s.mu.Unlock()
	return nil
}
func (s *ctlKV) record(lat int64) {
	for {
		old := s.peak.Load()
		if lat <= old || s.peak.CompareAndSwap(old, lat) {
			return
		}
	}
}

func (s *ctlKV) check(issued, puts, maxLat int64) error {
	var errs []error
	if n := s.hits.Load(); n != issued {
		errs = append(errs, fmt.Errorf("control hits = %d, want %d", n, issued))
	}
	if v := s.peak.Load(); v != maxLat {
		errs = append(errs, fmt.Errorf("control peak = %d, want %d", v, maxLat))
	}
	s.jmu.Lock()
	n := s.jlen
	s.jmu.Unlock()
	if n != puts {
		errs = append(errs, fmt.Errorf("control journal holds %d entries, want %d", n, puts))
	}
	return errors.Join(errs...)
}

var bg = context.Background()

// kvClient issues one client's requests closed-loop: the next request
// starts when the previous one returns.
type kvClient struct {
	svc    kvService
	ops    []uint32
	pos    int
	tr     *tracer // nil when untraced
	seq    uint32
	sink   uint64
	issued int64
	puts   int64
	maxLat int64 // largest latency handed to record
	fails  failures
}

func newKVClients(svc kvService, streams [][]uint32) []*kvClient {
	cs := make([]*kvClient, len(streams))
	for i, ops := range streams {
		cs[i] = &kvClient{svc: svc, ops: ops, maxLat: math.MinInt64}
	}
	return cs
}

// request runs one KV request that started at start and returns the time
// it ended: Counter.Add, then Map.GetCtx or a journal append under
// Mutex.LockCtx followed by Map.PutCtx, then the work loop, then
// FetchOp.Apply of the latency so far. Each library call is a span.
func (c *kvClient) request(clk clock, op uint32, start int64) int64 {
	s, tr := c.svc, c.tr
	key := uint64(op & keyMask)
	c.issued++
	tr.begin(start)
	s.hit()
	t := tr.mark(kCounterAdd, 0, start)
	if op&opPut == 0 {
		v, found, err := s.get(bg, key)
		t = tr.mark(kMapGet, 0, t)
		switch {
		case err != nil:
			c.fails.add(fmt.Errorf("GetCtx(%d): %w", key, err))
		case !found:
			c.fails.add(fmt.Errorf("GetCtx(%d): key missing", key))
		case v>>32 != key:
			c.fails.add(fmt.Errorf("GetCtx(%d) returned %#x, tagged with key %d", key, v, v>>32))
		}
	} else {
		if err := s.lock(bg); err != nil {
			c.fails.add(fmt.Errorf("LockCtx: %w", err))
		} else {
			t = tr.mark(kMutexLock, 0, t)
			hold := tr.add(kMutexHold, 0, t, 0)
			s.appendJournal()
			c.puts++
			u := tr.now()
			s.unlock()
			t = tr.mark(kMutexUnlock, hold, u)
			tr.setEnd(hold, t)
		}
		c.seq++
		if err := s.put(bg, key, key<<32|uint64(c.seq)); err != nil {
			c.fails.add(fmt.Errorf("PutCtx(%d): %w", key, err))
		}
		tr.mark(kMapPut, 0, t)
	}
	c.sink = spin(c.sink, kvWork)
	done := clk.now()
	lat := done - start
	s.record(lat)
	if lat > c.maxLat {
		c.maxLat = lat
	}
	end := clk.now()
	tr.add(kFetchApply, 0, done, end)
	tr.finish(end)
	return end
}

func (c *kvClient) next() uint32 {
	op := c.ops[c.pos]
	c.pos++
	if c.pos == len(c.ops) {
		c.pos = 0
	}
	return op
}

// runN issues n requests.
func (c *kvClient) runN(clk clock, n int) {
	t := clk.now()
	for i := 0; i < n; i++ {
		t = c.request(clk, c.next(), t)
	}
}

// kvSlice runs every client for nWin windows and adds the windows to s.
func kvSlice(cs []*kvClient, clk clock, nWin int, s *series) {
	windowSlice(len(cs), clk, nWin, s, func(i int, t int64) int64 {
		c := cs[i]
		return c.request(clk, c.next(), t)
	})
}

func issued(cs []*kvClient) int64 {
	var n int64
	for _, c := range cs {
		n += c.issued
	}
	return n
}

// kvSetup builds a store, prefills every key with the value key<<32, and
// warms it with kvWarmOps requests from the first client alone. The
// warm-up fills caches and the heap without contention, so set-up time
// does not depend on how often the Map switches; switching under
// contention happens, and is counted, in the measured run.
func kvSetup(svc kvService, streams [][]uint32, clk clock) []*kvClient {
	for k := uint64(0); k < kvKeys; k++ {
		if err := svc.put(bg, k, k<<32); err != nil {
			panic(err) // a Background context cannot end
		}
	}
	cs := newKVClients(svc, streams)
	cs[0].runN(clk, kvWarmOps)
	return cs
}

// kvDrain checks the drained store against the clients' tallies.
func kvDrain(svc kvService, cs []*kvClient) failures {
	var f failures
	var issued, puts int64
	maxLat := int64(math.MinInt64)
	for _, c := range cs {
		issued += c.issued
		puts += c.puts
		maxLat = max(maxLat, c.maxLat)
		f.merge(&c.fails)
	}
	if err := svc.check(issued, puts, maxLat); err != nil {
		f.add(err)
	}
	return f
}

// spin is the synthetic work loop: iters dependent xorshift steps.
func spin(x uint64, iters int) uint64 {
	x |= 1
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

func runKV(c *cfg, putPct int) *outcome {
	o := newOutcome()
	streams := make([][]uint32, c.clients)
	for i := range streams {
		streams[i] = kvOps(c.seed, i, kvStream, kvKeys, putPct)
	}
	nWin := int(int64(c.seconds) * 1e9 / winNs)
	if c.trace {
		traceKV(c, o, streams, nWin)
		return o
	}
	var svc *libKV
	var cs []*kvClient
	var setups []float64
	for r := 0; r < setupReps; r++ {
		if svc != nil {
			f := kvDrain(svc, cs)
			o.fails.merge(&f)
		}
		t0 := c.clk.now()
		svc = newLibKV()
		cs = kvSetup(svc, streams, c.clk)
		setups = append(setups, secs(c.clk.now()-t0))
	}
	n0, st0 := issued(cs), svc.stats()
	p := startPoller(svc.reg, c.clk)
	var s series
	kvSlice(cs, c.clk, nWin, &s)
	res := p.finish()
	n1, st1 := issued(cs), svc.stats()
	f := kvDrain(svc, cs)
	o.fails.merge(&f)
	o.endToEnd(&s, n1-n0, setups, kvPass/s.opsPerS())
	o.report["switches"] = st1.since(st0)
	o.report["residency"] = residencyReport(res)
	return o
}

// traceKV alternates untraced, traced and control slices of equal length.
func traceKV(c *cfg, o *outcome, streams [][]uint32, nWin int) {
	svc := newLibKV()
	cs := kvSetup(svc, streams, c.clk)
	ctl := newCtlKV()
	ccs := kvSetup(ctl, streams, c.clk)
	trs := make([]*tracer, len(cs))
	for i := range trs {
		trs[i] = newTracer(c.clk, i, keepStride)
	}
	per := max(1, nWin/(3*traceRounds))
	n0 := issued(cs) + issued(ccs)
	var plain, traced, control series
	var n switchCounts
	res := newResidency()
	var tracedNs int64
	for r := 0; r < traceRounds; r++ {
		p := startPoller(svc.reg, c.clk)
		kvSlice(cs, c.clk, per, &plain)
		p.finish()

		for i, cl := range cs {
			cl.tr = trs[i]
		}
		st0, t0 := svc.stats(), c.clk.now()
		p = startPoller(svc.reg, c.clk)
		kvSlice(cs, c.clk, per, &traced)
		res.merge(p.finish())
		tracedNs += c.clk.now() - t0
		n.add(svc.stats().since(st0))
		for _, cl := range cs {
			cl.tr = nil
		}

		kvSlice(ccs, c.clk, per, &control)
	}
	f := kvDrain(svc, cs)
	o.fails.merge(&f)
	f = kvDrain(ctl, ccs)
	o.fails.merge(&f)
	o.attempted = issued(cs) + issued(ccs) - n0
	var agg traceAgg
	for _, t := range trs {
		agg.merge(t)
	}
	o.layerMetrics(&agg, res, n, secs(tracedNs))
	o.traceSummary(&plain, &traced, &control)
	writeSpans(c, &agg, o)
}
