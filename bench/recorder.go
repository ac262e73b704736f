package main

import (
	"math"
	"math/bits"
	"sort"
)

// recorder is a fixed-size log-linear histogram of non-negative int64
// samples (nanoseconds here). Values below 2^subBits are counted exactly;
// above that each power of two is split into 2^subBits buckets, so a
// reported percentile is within 1/2^subBits = 0.8 % of the true sample.
// It is allocated once, before the measured phase, and add never allocates:
// the driver must not show up in allocs_per_op.
type recorder struct {
	counts []uint32
	n      uint64
	max    int64
}

const subBits = 7

// 64-bit values need (64-subBits) octaves above the exact range.
const recorderBuckets = (64 - subBits + 1) << subBits

func newRecorder() *recorder {
	return &recorder{counts: make([]uint32, recorderBuckets)}
}

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 1<<subBits {
		return int(u)
	}
	shift := bits.Len64(u) - 1 - subBits
	return (shift+1)<<subBits + int(u>>shift) - 1<<subBits
}

// bucketBounds returns the smallest value that falls in bucket i and the
// bucket's width.
func bucketBounds(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	shift := i>>subBits - 1
	mant := uint64(i&(1<<subBits-1)) + 1<<subBits
	return float64(mant << shift), float64(uint64(1) << shift)
}

func (r *recorder) add(v int64) {
	r.counts[bucketOf(v)]++
	r.n++
	if v > r.max {
		r.max = v
	}
}

func (r *recorder) reset() {
	clear(r.counts)
	r.n = 0
	r.max = 0
}

// percentile returns the value with p (0..1] of the samples at or below
// it, 0 when empty. Inside the bucket that holds the rank it interpolates
// by rank, as if the bucket's samples were spread evenly over its width,
// so the result is a continuous reading rather than one of the bucket
// midpoints.
func (r *recorder) percentile(p float64) float64 {
	if r.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(r.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range r.counts {
		if c == 0 {
			continue
		}
		if seen+uint64(c) >= rank {
			lo, width := bucketBounds(i)
			return min(lo+width*(float64(rank-seen)-0.5)/float64(c), float64(r.max))
		}
		seen += uint64(c)
	}
	return float64(r.max)
}

// beyond reports how many samples lie strictly above the p-th percentile's
// rank — the guide's "at least ten samples beyond it" test for a tail.
func (r *recorder) beyond(p float64) uint64 {
	return r.n - uint64(math.Ceil(p*float64(r.n)))
}

// median of a small set of per-segment or per-set-up values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles ports Python's statistics.quantiles(values, n=4) (the default
// "exclusive" method), which is what the acceptance driver computes spreads
// with, so -agree reports the same number the driver will see.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		v := median(s)
		return v, v, v
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
