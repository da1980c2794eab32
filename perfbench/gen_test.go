package main

import (
	"slices"
	"testing"
)

func TestSameSeedSameStream(t *testing.T) {
	for _, putPct := range []int{5, 50} {
		a := kvOps(42, 1, 1<<14, kvKeys, putPct)
		b := kvOps(42, 1, 1<<14, kvKeys, putPct)
		if !slices.Equal(a, b) {
			t.Fatalf("putPct %d: two streams from seed 42 differ", putPct)
		}
		if slices.Equal(a, kvOps(43, 1, 1<<14, kvKeys, putPct)) {
			t.Fatalf("putPct %d: seeds 42 and 43 gave the same stream", putPct)
		}
		if slices.Equal(a, kvOps(42, 0, 1<<14, kvKeys, putPct)) {
			t.Fatalf("putPct %d: clients 0 and 1 drew the same stream", putPct)
		}
	}
	if !slices.EqualFunc(phaseDeltas(9), phaseDeltas(9), slices.Equal[[]int64]) {
		t.Fatal("two phase-shift operand streams from seed 9 differ")
	}
}

func TestStreamMix(t *testing.T) {
	const n = 1 << 16
	ops := kvOps(1, 0, n, kvKeys, 5)
	puts, hot := 0, 0
	for _, op := range ops {
		if op&opPut != 0 {
			puts++
		}
		if k := op & keyMask; k >= kvKeys {
			t.Fatalf("key %d outside [0, %d)", k, kvKeys)
		} else if k == 0 {
			hot++
		}
	}
	if pct := float64(puts) * 100 / n; pct < 4 || pct > 6 {
		t.Errorf("%.2f%% puts, want about 5%%", pct)
	}
	// Zipf θ=0.99 over 4096 keys gives rank 0 about 1/zeta(4096) ≈ 11% of draws.
	if share := float64(hot) / n; share < 0.09 || share > 0.13 {
		t.Errorf("hottest key drew %.3f of ops, want about 0.11", share)
	}
}
