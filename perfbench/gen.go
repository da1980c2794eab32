package main

import "math"

// splitMix64 is the SplitMix64 generator: a 64-bit state advanced by a
// fixed odd constant and finalized by two multiply-xorshift rounds. It is
// the benchmark's only source of randomness, so a seed fixes every input.
type splitMix64 struct{ s uint64 }

func (r *splitMix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform float64 in [0, 1).
func (r *splitMix64) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// streamRNG derives client's generator from the run seed, so clients draw
// independent streams and the same (seed, client) pair always draws the
// same one.
func streamRNG(seed uint64, client int) *splitMix64 {
	mix := splitMix64{s: seed}
	for i := 0; i <= client; i++ {
		mix.next()
	}
	return &splitMix64{s: mix.next()}
}

// zipf draws ranks in [0, n) from the YCSB Zipfian distribution with
// exponent theta (Gray et al., "Quickly generating billion-record
// synthetic databases"): rank 0 is the most popular item.
type zipf struct {
	n                   float64
	theta, alpha, zetan float64
	eta                 float64
}

func newZipf(n int, theta float64) *zipf {
	zetan := 0.0
	for i := 1; i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	return &zipf{
		n:     float64(n),
		theta: theta,
		alpha: 1 / (1 - theta),
		zetan: zetan,
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
	}
}

func (z *zipf) draw(r *splitMix64) uint64 {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	k := uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= uint64(z.n) {
		k = uint64(z.n) - 1
	}
	return k
}

// A KV op packs its key into the low bits and sets opPut for a write.
const (
	opPut   = 1 << 31
	keyMask = opPut - 1
)

// kvOps generates client's op stream: n ops over keys Zipf-distributed
// in [0, keys), putPct percent of them Puts.
func kvOps(seed uint64, client, n, keys, putPct int) []uint32 {
	r := streamRNG(seed, client)
	z := newZipf(keys, zipfTheta)
	ops := make([]uint32, n)
	for i := range ops {
		op := uint32(z.draw(r))
		if int(r.next()%100) < putPct {
			op |= opPut
		}
		ops[i] = op
	}
	return ops
}
