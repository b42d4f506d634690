package telemetry

import (
	"fmt"
	"strconv"
	"sync/atomic"
)

// Histogram is a fixed-boundary log-scale histogram over int64 samples
// (typically nanoseconds or bytes). Boundaries are chosen once at
// registration — ExponentialBounds builds the conventional log-scale set —
// so Observe is a short linear scan over a flat bound slice plus two atomic
// adds: no hashing, no locking, no allocation, enforceable by hotalloc.
//
// Buckets follow the Prometheus convention: bucket i counts samples with
// value <= bounds[i]; one implicit +Inf bucket catches the rest. Sum is
// kept in raw units and divided by the registration-time unit at render
// time (1e9 maps nanoseconds to the exposition's seconds).
type Histogram struct {
	bounds []int64        // ascending inclusive upper bounds
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf overflow bucket
	sum    atomic.Int64   // raw units
	unit   float64        // render divisor: exposition value = raw / unit

	le []string // pre-rendered `le="..."` label fragments, bounds then +Inf
}

// newHistogram builds the bucket state; Registry.Histogram is the public
// entry point.
func newHistogram(bounds []int64, unit float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending: %d after %d", bounds[i], bounds[i-1]))
		}
	}
	if unit <= 0 {
		unit = 1
	}
	h := &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
		unit:   unit,
		le:     make([]string, len(bounds)+1),
	}
	for i, bound := range h.bounds {
		h.le[i] = `le="` + string(appendFloat(nil, float64(bound)/unit)) + `"`
	}
	h.le[len(bounds)] = `le="+Inf"`
	return h
}

// Observe records one sample. Nil receivers no-op, so optional
// instrumentation costs one predictable branch.
//
//tpp:hotpath
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of samples observed.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed samples, in raw units.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the average observed sample in raw units, or 0 before the
// first observation. tppd's /v1/stats reports it as the "*_mean_ms"
// fields.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// render appends the series' _bucket/_sum/_count exposition lines. Bucket
// counts are accumulated in one ascending pass, so the rendered cumulative
// counts are monotone even while observations land concurrently; _count
// reuses the final cumulative value so `le="+Inf"` always equals it.
func (h *Histogram) render(b []byte, name, labels string) []byte {
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		b = appendSample(b, name, "_bucket", labels, h.le[i])
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
	}
	b = appendSample(b, name, "_sum", labels, "")
	b = appendFloat(b, float64(h.sum.Load())/h.unit)
	b = append(b, '\n')
	b = appendSample(b, name, "_count", labels, "")
	b = strconv.AppendInt(b, cum, 10)
	return append(b, '\n')
}

// ExponentialBounds returns n ascending bucket bounds starting at lo and
// multiplying by factor — the fixed log-scale boundary sets this package's
// histograms use. Values are rounded to integers; panics on degenerate
// parameters (lo < 1, factor <= 1, n < 1).
func ExponentialBounds(lo int64, factor float64, n int) []int64 {
	if lo < 1 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("telemetry: bad exponential bounds lo=%d factor=%g n=%d", lo, factor, n))
	}
	bounds := make([]int64, n)
	v := float64(lo)
	for i := range bounds {
		bounds[i] = int64(v)
		v *= factor
	}
	return bounds
}

// DurationBounds is the canonical request/stage latency boundary set:
// powers of 4 from 1µs to ~4.4min, in nanoseconds (14 buckets + overflow).
// Wide enough for a sub-µs healthz and a minutes-long cold enumeration on
// the same scale.
func DurationBounds() []int64 {
	return ExponentialBounds(1_000, 4, 14)
}

// SizeBounds is the canonical response-size boundary set: powers of 4 from
// 64B to ~1GB, in bytes (13 buckets + overflow).
func SizeBounds() []int64 {
	return ExponentialBounds(64, 4, 13)
}
