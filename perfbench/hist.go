package main

import (
	"math/bits"
	"sort"
)

// hist is a log-linear histogram of nanosecond durations: values below
// 2^subBits get a bucket each, and every power of two above that is split
// into 2^subBits equal buckets, so a bucket is at most 1/64 of its value
// wide. Recording is a few instructions and never allocates, which keeps
// it out of the latencies it records.
type hist struct {
	n      uint64
	sum    uint64
	counts [nBuckets]uint32
}

const (
	subBits  = 6
	maxExp   = 36 // values at or above 2^maxExp ns (69 s) share the last bucket
	nBuckets = (maxExp - subBits + 1) << subBits
)

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1
	b := (e+1)<<subBits + int(v>>e) - 1<<subBits
	if b >= nBuckets {
		return nBuckets - 1
	}
	return b
}

// bucketLow and bucketWidth give the range [low, low+width) bucket b holds.
func bucketLow(b int) uint64 {
	if b < 1<<subBits {
		return uint64(b)
	}
	e := b>>subBits - 1
	return uint64(b&(1<<subBits-1)+1<<subBits) << e
}

func bucketWidth(b int) uint64 {
	if b < 1<<subBits {
		return 1
	}
	return 1 << (b>>subBits - 1)
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.n++
	h.sum += uint64(v)
	h.counts[bucketOf(uint64(v))]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	h.sum += o.sum
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantile returns the nearest-rank q-quantile: the ceil(q*n)-th
// smallest sample. Within a bucket wider than 1 ns it interpolates
// linearly by rank, so the result lies in the bucket of the exact
// answer and moves continuously with the data.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(nearestRank(q, int(h.n)))
	var seen uint64
	for b, c := range h.counts {
		if seen+uint64(c) >= rank {
			lo, w := bucketLow(b), bucketWidth(b)
			if w == 1 {
				return float64(lo)
			}
			return float64(lo) + float64(w)*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += uint64(c)
	}
	return float64(bucketLow(nBuckets - 1))
}

// nearestRank is the 1-based rank of the q-quantile among n samples.
func nearestRank(q float64, n int) int {
	r := int(q*float64(n) + 0.999999999)
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for none. It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
