package main

import (
	"sync"
	"time"

	"repro/reactive"
	"repro/reactive/reactivehttp"
)

// pollEvery is the mode-residency poll period, the cadence a telemetry
// scraper would use.
const pollEvery = time.Millisecond

// residency is what one poller saw: for each registered primitive (and,
// for an RWMutex, its reader protocol under "<name>.readers") the time
// spent in each mode, and the cost of each Registry.Snapshot call.
type residency struct {
	ns    map[string]*[8]int64
	total int64
	snap  hist
}

// share is the fraction of observed time name spent in mode m.
func (r *residency) share(name string, m reactive.Mode) float64 {
	a := r.ns[name]
	if a == nil || r.total == 0 {
		return 0
	}
	return float64(a[m]) / float64(r.total)
}

func (r *residency) merge(o *residency) {
	for name, a := range o.ns {
		b := r.ns[name]
		if b == nil {
			b = new([8]int64)
			r.ns[name] = b
		}
		for i := range a {
			b[i] += a[i]
		}
	}
	r.total += o.total
	r.snap.merge(&o.snap)
}

func newResidency() *residency { return &residency{ns: map[string]*[8]int64{}} }

// poller samples a Registry every pollEvery from its own goroutine,
// crediting the time since the previous sample to the modes it sees now.
type poller struct {
	stop chan struct{}
	wg   sync.WaitGroup
	res  *residency
}

func startPoller(reg *reactivehttp.Registry, clk clock) *poller {
	p := &poller{stop: make(chan struct{}), res: newResidency()}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		prev := clk.now()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			t0 := clk.now()
			snap := reg.Snapshot()
			t1 := clk.now()
			p.res.snap.add(t1 - t0)
			dt := t1 - prev
			prev = t1
			p.res.total += dt
			for name, st := range snap.Primitives {
				p.credit(name, st.Mode, dt)
				if st.Readers != nil {
					p.credit(name+".readers", st.Readers.Mode, dt)
				}
			}
		}
	}()
	return p
}

func (p *poller) credit(name string, m reactive.Mode, dt int64) {
	a := p.res.ns[name]
	if a == nil {
		a = new([8]int64)
		p.res.ns[name] = a
	}
	if int(m) < len(a) {
		a[m] += dt
	}
}

// finish stops the poller, waits for its goroutine, and returns what it saw.
func (p *poller) finish() *residency {
	close(p.stop)
	p.wg.Wait()
	return p.res
}
