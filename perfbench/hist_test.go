package main

import (
	"math"
	"slices"
	"testing"
)

// TestQuantileMatchesSortedReference checks the histogram's quantiles
// against the nearest-rank quantile of the sorted samples: exact for
// values under 2^subBits, and otherwise inside the exact answer's bucket.
func TestQuantileMatchesSortedReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func(r *splitMix64) int64
		n    int
	}{
		{"small-exact", func(r *splitMix64) int64 { return int64(r.next() % 64) }, 1000},
		{"uniform", func(r *splitMix64) int64 { return int64(r.next() % 1_000_000) }, 10007},
		{"heavy-tail", func(r *splitMix64) int64 { return int64(math.Exp(r.float() * 20)) }, 5000},
		{"single", func(*splitMix64) int64 { return 12345 }, 1},
	} {
		r := &splitMix64{s: 7}
		var h hist
		xs := make([]int64, tc.n)
		for i := range xs {
			xs[i] = tc.gen(r)
			h.add(xs[i])
		}
		slices.Sort(xs)
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			ref := xs[nearestRank(q, len(xs))-1]
			got := h.quantile(q)
			b := bucketOf(uint64(ref))
			lo, hi := float64(bucketLow(b)), float64(bucketLow(b)+bucketWidth(b))
			if got < lo || got >= hi || (ref < 1<<subBits && got != float64(ref)) {
				t.Errorf("%s: quantile(%v) = %v, sorted reference %d (bucket [%v, %v))", tc.name, q, got, ref, lo, hi)
			}
		}
	}
}

func TestBucketsCoverValues(t *testing.T) {
	r := &splitMix64{s: 3}
	for i := 0; i < 100000; i++ {
		v := r.next() >> (r.next() % 64)
		if v >= 1<<maxExp {
			continue
		}
		b := bucketOf(v)
		if lo := bucketLow(b); v < lo || v >= lo+bucketWidth(b) {
			t.Fatalf("value %d in bucket %d = [%d, %d)", v, b, lo, lo+bucketWidth(b))
		}
		if w := bucketWidth(b); b >= 1<<subBits && w > v>>subBits {
			t.Fatalf("bucket %d of value %d is %d wide, more than 1/%d of it", b, v, w, 1<<subBits)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
