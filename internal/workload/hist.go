package workload

import (
	"math/bits"
	"time"
)

// Histogram bucket geometry: values below 2^histSubBits nanoseconds
// are recorded exactly (one bucket per nanosecond); above that, each
// power-of-two octave is split into 2^histSubBits linear sub-buckets,
// so the relative bucket width is at most 1/2^histSubBits ≈ 1.6% —
// tighter than any percentile kvload prints. The layout covers
// the full int64 nanosecond range (≈292 years) in a fixed array, so
// Record is two shifts, a mask and an increment: no allocation, no
// branch on magnitude classes, nothing for the hot path to contend on
// (each worker owns its histogram; Merge combines them afterwards).
const (
	histSubBits  = 6
	histSubCount = 1 << histSubBits
	histBuckets  = (64 - histSubBits) * histSubCount // indexes [0, histBuckets)
)

// Histogram is a fixed-bucket latency histogram. Not safe for
// concurrent use — give each worker its own and Merge at the end.
type Histogram struct {
	counts [histBuckets]uint64
	count  uint64
	sum    uint64 // total nanoseconds, for Mean
	max    int64  // exact, not bucketed
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(v int64) int {
	if v < histSubCount {
		return int(v)
	}
	e := 63 - bits.LeadingZeros64(uint64(v))
	return ((e - histSubBits + 1) << histSubBits) | int((v>>(e-histSubBits))&(histSubCount-1))
}

// bucketMid returns the midpoint nanosecond value of a bucket — the
// value percentiles report for samples that landed in it.
func bucketMid(idx int) int64 {
	if idx < histSubCount {
		return int64(idx)
	}
	octave := idx >> histSubBits
	mantissa := int64(idx & (histSubCount - 1))
	shift := uint(octave - 1)
	lo := (histSubCount + mantissa) << shift
	return lo + int64(1)<<shift/2
}

// Record adds one latency sample. Negative durations count as zero.
func (h *Histogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	h.count++
	h.sum += uint64(v)
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Max returns the largest recorded sample, exactly.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Mean returns the arithmetic mean of the samples.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// Percentile returns the latency at quantile q in [0, 100]: the bucket
// midpoint of the sample with rank ceil(q/100 * count). q=0 returns
// the smallest bucket's value; an empty histogram returns 0.
func (h *Histogram) Percentile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	rank := uint64(q / 100 * float64(h.count))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return time.Duration(bucketMid(i))
		}
	}
	return time.Duration(h.max) // unreachable: counts sum to count
}

// Merge adds every sample of o into h.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}
