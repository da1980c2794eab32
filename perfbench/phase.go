package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/reactive"
	"repro/reactive/reactivehttp"
)

// Op counts of one phase-shift cycle, per participating client. They are
// sized so each phase takes a similar share of a cycle.
const (
	soloOps      = 90000 // one client: Mutex, Counter and FetchOp uncontended
	soloWriteGap = 16    // every 16th solo op also takes the RWMutex for writing
	pairOps      = 24000 // two clients: short Mutex critical sections, Counter, FetchOp
	pairWork     = 16    // work loop iterations inside a pair critical section
	readOps      = 66000 // two clients: RWMutex readers
	readWriteGap = 256   // client 0 writes once every 256 reader ops
	reconOps     = 48000 // two clients update Counter and FetchOp
	reconReadGap = 8     // client 1 reconciles them every 8th op
)

type rwLocker interface {
	sync.Locker
	RLock()
	RUnlock()
}

type adder interface {
	Add(int64)
	Load() int64
}

type applier interface {
	Apply(int64)
	Value() int64
}

// phaseSet is what phase-shift runs against: the reactive Mutex,
// RWMutex, Counter and FetchOp, or the stdlib control.
type phaseSet struct {
	mu     sync.Locker
	rw     rwLocker
	ctr    adder
	fop    applier // a sum: Value is the total applied
	mx, my int64   // guarded by mu; both count critical sections
	ra, rb int64   // guarded by rw; both count writes, so a reader sees them equal
	lib    *phaseLib
}

// phaseLib holds the reactive primitives behind a library phaseSet.
type phaseLib struct {
	mu  *reactive.Mutex
	rw  *reactive.RWMutex
	ctr *reactive.Counter
	fop *reactive.FetchOp
	reg *reactivehttp.Registry
}

func newLibPhaseSet() *phaseSet {
	l := &phaseLib{
		mu:  reactive.New(),
		rw:  reactive.NewRWMutex(),
		ctr: reactive.NewCounter(),
		fop: reactive.NewFetchOp(func(a, b int64) int64 { return a + b }, 0),
		reg: &reactivehttp.Registry{},
	}
	l.reg.Register("mutex", l.mu)
	l.reg.Register("rwmutex", l.rw)
	l.reg.Register("counter", l.ctr)
	l.reg.Register("fetchop", l.fop)
	return &phaseSet{mu: l.mu, rw: l.rw, ctr: l.ctr, fop: l.fop, lib: l}
}

func (l *phaseLib) stats() layerStats {
	return layerStats{mutex: l.mu.Stats(), rw: l.rw.Stats(), counter: l.ctr.Stats(), fop: l.fop.Stats()}
}

// atomicSum is the control for Counter and FetchOp: one atomic.Int64.
type atomicSum struct{ v atomic.Int64 }

func (a *atomicSum) Add(d int64)   { a.v.Add(d) }
func (a *atomicSum) Load() int64   { return a.v.Load() }
func (a *atomicSum) Apply(d int64) { a.v.Add(d) }
func (a *atomicSum) Value() int64  { return a.v.Load() }

func newCtlPhaseSet() *phaseSet {
	return &phaseSet{mu: &sync.Mutex{}, rw: &sync.RWMutex{}, ctr: &atomicSum{}, fop: &atomicSum{}}
}

// phaseClient is one of the two phase-shift clients.
type phaseClient struct {
	id    int
	s     *phaseSet
	tr    *tracer
	n     int // ops issued by this client, the write cadence's clock
	sink  uint64
	delta []int64 // seeded Counter and FetchOp operands, replayed in a loop
	locks int64   // Mutex critical sections
	adds  int64   // sum of Counter.Add deltas
	apps  int64   // sum of FetchOp.Apply operands
	fails failures
}

// lockCS takes the Mutex, bumps both guarded counts with work iterations
// of the work loop between them, and releases it.
func (c *phaseClient) lockCS(t int64, work int) int64 {
	s, tr := c.s, c.tr
	s.mu.Lock()
	t = tr.mark(kMutexLock, 0, t)
	hold := tr.add(kMutexHold, 0, t, 0)
	s.mx++
	c.sink = spin(c.sink, work)
	s.my++
	u := tr.now()
	s.mu.Unlock()
	t = tr.mark(kMutexUnlock, hold, u)
	tr.setEnd(hold, t)
	c.locks++
	return t
}

func (c *phaseClient) update(t int64) int64 {
	s, tr := c.s, c.tr
	d := c.delta[c.n%len(c.delta)]
	s.ctr.Add(d)
	t = tr.mark(kCounterAdd, 0, t)
	s.fop.Apply(d + 1)
	t = tr.mark(kFetchApply, 0, t)
	c.adds += d
	c.apps += d + 1
	return t
}

func (c *phaseClient) write(t int64) int64 {
	s, tr := c.s, c.tr
	s.rw.Lock()
	t = tr.mark(kRWLock, 0, t)
	s.ra++
	s.rb++
	s.rw.Unlock()
	return tr.mark(kRWUnlock, 0, t)
}

func (c *phaseClient) read(t int64) int64 {
	s, tr := c.s, c.tr
	s.rw.RLock()
	t = tr.mark(kRWRLock, 0, t)
	if a, b := s.ra, s.rb; a != b {
		c.fails.add(fmt.Errorf("reader saw a torn write: %d != %d", a, b))
	}
	s.rw.RUnlock()
	return tr.mark(kRWRUnlock, 0, t)
}

func (c *phaseClient) reconcile(t int64) int64 {
	s, tr := c.s, c.tr
	s.ctr.Load()
	t = tr.mark(kCounterLoad, 0, t)
	s.fop.Value()
	return tr.mark(kFetchValue, 0, t)
}

func (c *phaseClient) soloOp(t int64) {
	t = c.lockCS(t, 0)
	t = c.update(t)
	if c.n%soloWriteGap == 0 {
		c.write(t)
	}
}

func (c *phaseClient) pairOp(t int64) {
	t = c.lockCS(t, pairWork)
	c.update(t)
}

func (c *phaseClient) readOp(t int64) {
	if c.id == 0 && c.n%readWriteGap == 0 {
		t = c.write(t)
	}
	c.read(t)
}

func (c *phaseClient) reconOp(t int64) {
	t = c.update(t)
	if c.id == 1 && c.n%reconReadGap == 0 {
		c.reconcile(t)
	}
}

// phase is one phase of the cycle: its op, op count per client, and how
// many clients take part.
type phase struct {
	name    string
	op      func(c *phaseClient, t int64)
	n       int
	clients int
}

// phases is the cycle, ordered so that each primitive is driven up and
// then back down within one cycle: readers promote the RWMutex's reader
// protocol and pair promotes the Mutex, then solo's lone lock and write
// traffic demotes both, and reconcile both promotes the Counter and
// FetchOp with contended updates and demotes them with reads.
var phases = []phase{
	{"readers", (*phaseClient).readOp, readOps, 2},
	{"pair", (*phaseClient).pairOp, pairOps, 2},
	{"solo", (*phaseClient).soloOp, soloOps, 1},
	{"reconcile", (*phaseClient).reconOp, reconOps, 2},
}

// opsPerCycle is the number of ops one cycle issues.
func opsPerCycle() int {
	n := 0
	for _, p := range phases {
		n += p.n * p.clients
	}
	return n
}

// cycle runs every phase in turn, each client closed-loop, recording
// each op's latency in lat[client] when that is not nil. It returns each
// phase's wall time.
func cycle(cs []*phaseClient, clk clock, lat []*hist) [4]int64 {
	var took [4]int64
	for pi, p := range phases {
		t0 := clk.now()
		var wg sync.WaitGroup
		for i := 0; i < p.clients; i++ {
			c, h := cs[i], lat[i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				t := clk.now()
				for j := 0; j < p.n; j++ {
					c.n++
					c.tr.begin(t)
					p.op(c, t)
					end := clk.now()
					c.tr.finish(end)
					if h != nil {
						h.add(end - t)
					}
					t = end
				}
			}()
		}
		wg.Wait()
		took[pi] = clk.now() - t0
	}
	return took
}

// phaseDeltas draws each client's operand stream: small positive deltas.
func phaseDeltas(seed uint64) [][]int64 {
	ds := make([][]int64, 2)
	for i := range ds {
		r := streamRNG(seed, i)
		ds[i] = make([]int64, 4096)
		for j := range ds[i] {
			ds[i][j] = int64(1 + r.next()%8)
		}
	}
	return ds
}

func newPhaseClients(s *phaseSet, deltas [][]int64) []*phaseClient {
	cs := make([]*phaseClient, len(deltas))
	for i, d := range deltas {
		cs[i] = &phaseClient{id: i, s: s, delta: d}
	}
	return cs
}

// phaseDrain checks the drained set against the clients' tallies.
func phaseDrain(s *phaseSet, cs []*phaseClient) failures {
	var f failures
	var locks, adds, apps int64
	for _, c := range cs {
		locks += c.locks
		adds += c.adds
		apps += c.apps
		f.merge(&c.fails)
	}
	var errs []error
	s.mu.Lock()
	mx, my := s.mx, s.my
	s.mu.Unlock()
	if mx != locks || my != locks {
		errs = append(errs, fmt.Errorf("Mutex-guarded counts %d/%d, want %d critical sections", mx, my, locks))
	}
	if n := s.ctr.Load(); n != adds {
		errs = append(errs, fmt.Errorf("Counter.Load() = %d, want %d adds", n, adds))
	}
	if v := s.fop.Value(); v != apps {
		errs = append(errs, fmt.Errorf("FetchOp.Value() = %d, want %d applied", v, apps))
	}
	if l := s.lib; l != nil {
		for _, c := range []interface{ CheckInvariants() error }{l.mu, l.rw, l.ctr, l.fop} {
			if err := c.CheckInvariants(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	if err := errors.Join(errs...); err != nil {
		f.add(err)
	}
	return f
}

// phaseRun accumulates what a slice of phase-shift cycles saw.
type phaseRun struct {
	cycles int
	took   [][4]int64
	n      switchCounts
	res    *residency
	fails  failures
}

func newPhaseRun() *phaseRun { return &phaseRun{res: newResidency()} }

// phaseSlice runs whole cycles until durNs has passed, one window per
// cycle. Each cycle runs on a fresh set from newSet, so every cycle is an
// independent sample of the primitives' adaptation from a cold start;
// trs, when not nil, traces the clients.
func phaseSlice(c *cfg, deltas [][]int64, newSet func() *phaseSet, durNs int64, s *series, trs []*tracer, r *phaseRun) {
	stop := c.clk.now() + durNs
	lat := make([]hist, 2)
	for first := true; first || c.clk.now() < stop; first = false {
		set := newSet()
		cs := newPhaseClients(set, deltas)
		for i := range cs {
			if trs != nil {
				cs[i].tr = trs[i]
			}
		}
		var p *poller
		var st0 layerStats
		if set.lib != nil {
			st0 = set.lib.stats()
			p = startPoller(set.lib.reg, c.clk)
		}
		lat[0], lat[1] = hist{}, hist{}
		t0, m0 := c.clk.now(), readMark()
		took := cycle(cs, c.clk, []*hist{&lat[0], &lat[1]})
		s.addWindow(secs(c.clk.now()-t0), m0, readMark(), &lat[0], &lat[1])
		if p != nil {
			r.res.merge(p.finish())
			r.n.add(set.lib.stats().since(st0))
		}
		f := phaseDrain(set, cs)
		r.fails.merge(&f)
		r.cycles++
		r.took = append(r.took, took)
	}
}

// phaseShares is each phase's median share of its cycle's wall time.
func phaseShares(took [][4]int64) map[string]float64 {
	out := map[string]float64{}
	for pi, p := range phases {
		xs := make([]float64, len(took))
		for i, t := range took {
			xs[i] = float64(t[pi]) / float64(t[0]+t[1]+t[2]+t[3])
		}
		out[p.name] = median(xs)
	}
	return out
}

func runPhaseShift(c *cfg) *outcome {
	o := newOutcome()
	deltas := phaseDeltas(c.seed)
	dur := int64(c.seconds) * 1e9
	if c.trace {
		tracePhase(c, o, deltas, dur)
		return o
	}
	var setups []float64
	for r := 0; r < setupReps; r++ {
		t0 := c.clk.now()
		set := newLibPhaseSet()
		cs := newPhaseClients(set, deltas)
		cycle(cs, c.clk, []*hist{nil, nil})
		setups = append(setups, secs(c.clk.now()-t0))
		f := phaseDrain(set, cs)
		o.fails.merge(&f)
	}
	var s series
	r := newPhaseRun()
	phaseSlice(c, deltas, newLibPhaseSet, dur, &s, nil, r)
	o.fails.merge(&r.fails)
	o.endToEnd(&s, int64(r.cycles*opsPerCycle()), setups, s.windowS())
	o.report["phase_shares"] = phaseShares(r.took)
	o.report["switches"] = r.n
	o.report["residency"] = residencyReport(r.res)
	return o
}

func tracePhase(c *cfg, o *outcome, deltas [][]int64, dur int64) {
	trs := []*tracer{newTracer(c.clk, 0, keepStride), newTracer(c.clk, 1, keepStride)}
	per := dur / (3 * traceRounds)
	var plain, traced, control series
	rp, rt, rc := newPhaseRun(), newPhaseRun(), newPhaseRun()
	var tracedNs int64
	for r := 0; r < traceRounds; r++ {
		phaseSlice(c, deltas, newLibPhaseSet, per, &plain, nil, rp)
		t0 := c.clk.now()
		phaseSlice(c, deltas, newLibPhaseSet, per, &traced, trs, rt)
		tracedNs += c.clk.now() - t0
		phaseSlice(c, deltas, newCtlPhaseSet, per, &control, nil, rc)
	}
	for _, r := range []*phaseRun{rp, rt, rc} {
		o.fails.merge(&r.fails)
		o.attempted += int64(r.cycles * opsPerCycle())
	}
	var agg traceAgg
	for _, t := range trs {
		agg.merge(t)
	}
	o.layerMetrics(&agg, rt.res, rt.n, secs(tracedNs))
	o.traceSummary(&plain, &traced, &control)
	writeSpans(c, &agg, o)
}
