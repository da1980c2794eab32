package main

import "runtime"

// series is one kind of measured slice, cut into windows: a fixed span of
// time for the KV workloads, one phase cycle for phase-shift, one pass
// over the figure points for sim-figures.
//
// Rates and window times are medians over windows, so a stall that hits
// one window moves them by at most one rank. Latency quantiles pool
// every op: in a closed loop a stall delays only the requests in flight,
// and a window's own p99 can flip between the modes of a bimodal tail.
//
// Each window also records the CPU time the hypervisor stole from the
// VM, which the report shows next to the figures. Stolen time is not
// subtracted: with a vCPU taken away the two clients stop contending, so
// the library changes regime rather than slowing in proportion.
type series struct {
	wins []window
	lat  hist // every op's latency
}

type window struct {
	n     uint64  // ops that ended in the window
	dur   float64 // seconds
	alloc uint64  // heap bytes allocated
	steal uint64  // CPU time stolen by the hypervisor, in 1/100 s ticks
}

// mark is a reading of the counters a window is measured between.
type mark struct{ alloc, steal uint64 }

func readMark() mark { return mark{allocBytes(), stealTicks()} }

// addWindow appends a window of dur seconds measured between marks from
// and to, whose latencies are the merge of every client's histogram for
// it.
func (s *series) addWindow(dur float64, from, to mark, perClient ...*hist) {
	w := window{dur: dur, alloc: to.alloc - from.alloc, steal: to.steal - from.steal}
	for _, c := range perClient {
		w.n += c.n
		s.lat.merge(c)
	}
	s.wins = append(s.wins, w)
}

func (s *series) perWindow(f func(w window) float64) float64 {
	xs := make([]float64, len(s.wins))
	for i, w := range s.wins {
		xs[i] = f(w)
	}
	return median(xs)
}

func (s *series) opsPerS() float64 {
	return s.perWindow(func(w window) float64 { return float64(w.n) / w.dur })
}

// windowS is the median window duration in seconds.
func (s *series) windowS() float64 { return s.perWindow(func(w window) float64 { return w.dur }) }

func (s *series) quantileUs(q float64) float64 { return s.lat.quantile(q) / 1e3 }

// allocPerOp is the heap bytes allocated per op over every window.
func (s *series) allocPerOp() float64 {
	var a, n uint64
	for _, w := range s.wins {
		a += w.alloc
		n += w.n
	}
	return float64(a) / float64(max(n, 1))
}

// stealShare is the share of the CPU time of every window that the
// hypervisor stole.
func (s *series) stealShare() float64 {
	var st, cpu float64
	for _, w := range s.wins {
		st += float64(w.steal)
		cpu += w.dur * 100 * float64(runtime.NumCPU())
	}
	return st / max(cpu, 1)
}

func (s *series) ops() uint64 { return s.lat.n }

// windowSlice runs op closed-loop on n clients, each in its own
// goroutine, until nWin windows of winNs have passed, and adds the
// windows to s. op(i, t) runs client i's next op, which started at t, and
// returns when it ended; each latency is recorded in the window it ended
// in. Client 0 reads the window counters as it enters each window.
func windowSlice(n int, clk clock, nWin int, s *series, op func(i int, t int64) int64) {
	lat := make([][]hist, n)
	for i := range lat {
		lat[i] = make([]hist, nWin)
	}
	marks := make([]mark, nWin+1)
	start := clk.now()
	stop := start + int64(nWin)*winNs
	parallel(n, func(i int) {
		t, cur := clk.now(), -1
		for t < stop {
			end := op(i, t)
			w := int((end - start) / winNs)
			if w >= 0 && w < nWin {
				lat[i][w].add(end - t)
			}
			for i == 0 && cur < min(w, nWin) {
				cur++
				marks[cur] = readMark()
			}
			t = end
		}
	})
	hs := make([]*hist, n)
	for w := 0; w < nWin; w++ {
		for i := range lat {
			hs[i] = &lat[i][w]
		}
		s.addWindow(secs(winNs), marks[w], marks[w+1], hs...)
	}
}
