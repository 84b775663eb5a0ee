package main

import (
	"math"
	"math/bits"
	"time"
)

// Bucket geometry: values below 2^histSubBits ns get one bucket each;
// above, every power-of-two octave is split into 2^histSubBits linear
// sub-buckets, so a bucket is at most 1/128 ≈ 0.8 % wide and a reported
// midpoint is within 0.4 % of the sample — a percentile cannot jump by a
// visible step between runs. The range ends at 2^histMaxBits ns ≈ 17 s;
// longer samples land in the last bucket.
const (
	histSubBits  = 7
	histSubCount = 1 << histSubBits
	histMaxBits  = 34
	histBuckets  = (histMaxBits - histSubBits + 1) * histSubCount
)

// hist is a fixed-bucket latency histogram. Not safe for concurrent
// use: each client owns one and they are merged afterwards.
type hist struct {
	counts [histBuckets]uint64
	count  uint64
}

func bucketIndex(v int64) int {
	if v < histSubCount {
		return int(v)
	}
	if v >= 1<<histMaxBits {
		return histBuckets - 1
	}
	e := 63 - bits.LeadingZeros64(uint64(v))
	return (e-histSubBits+1)<<histSubBits | int(v>>(e-histSubBits)&(histSubCount-1))
}

// bucketMid is the value a percentile reports for a bucket.
func bucketMid(idx int) int64 {
	if idx < histSubCount {
		return int64(idx)
	}
	shift := uint(idx>>histSubBits - 1)
	lo := int64(histSubCount+idx&(histSubCount-1)) << shift
	return lo + int64(1)<<shift/2
}

func (h *hist) record(d time.Duration) {
	v := max(int64(d), 0)
	h.counts[bucketIndex(v)]++
	h.count++
}

// percentile returns the latency of the sample with rank
// ceil(q/100 × count), as its bucket's midpoint; 0 when empty.
func (h *hist) percentile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	rank := min(max(uint64(math.Ceil(q/100*float64(h.count))), 1), h.count)
	var seen uint64
	for i, c := range h.counts {
		if seen += c; seen >= rank {
			return time.Duration(bucketMid(i))
		}
	}
	return 0 // unreachable: counts sum to count
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
}
