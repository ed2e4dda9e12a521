package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. All methods are
// nil-safe: a nil *Counter silently drops updates, so instrumented code
// never branches on "is observability enabled".
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// FloatCounter is a monotonically increasing float metric (energies in
// femtojoules). Adds use a CAS loop; uncontended this costs about the
// same as an atomic add.
type FloatCounter struct {
	bits atomic.Uint64
}

// Add accumulates v (non-positive deltas are ignored).
func (c *FloatCounter) Add(v float64) {
	if c == nil || v <= 0 {
		return
	}
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// addRepeated adds v n times in sequence, one rounding per addition, so
// the result has the same bits as n successive Add(v) calls.
func (c *FloatCounter) addRepeated(v float64, n int64) {
	if v <= 0 || n <= 0 {
		return
	}
	for {
		old := c.bits.Load()
		x := math.Float64frombits(old)
		for k := int64(0); k < n; k++ {
			x += v
		}
		if c.bits.CompareAndSwap(old, math.Float64bits(x)) {
			return
		}
	}
}

// Value returns the accumulated total (0 on nil).
func (c *FloatCounter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a settable integer metric (clock, queue depth, busy flag).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v if v exceeds the current value.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		old := g.v.Load()
		if v <= old {
			return
		}
		if g.v.CompareAndSwap(old, v) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution metric. Bounds are inclusive
// upper edges ("le"); samples beyond the last bound land in the implicit
// +Inf bucket. Observations are lock-free atomic increments.
type Histogram struct {
	bounds []float64 // sorted inclusive upper edges
	counts []atomic.Int64
	inf    atomic.Int64
	sum    FloatCounter
	n      atomic.Int64
}

// newHistogram builds a histogram; bounds must be sorted ascending.
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b))}
}

// LinearBounds returns {start, start+width, ...} with count edges — the
// gap histograms use LinearBounds(0, 1, 17) to mirror the Fig. 5 axes
// (0..16 clocks plus the >16 overflow in +Inf).
func LinearBounds(start, width float64, count int) []float64 {
	bs := make([]float64, count)
	for i := range bs {
		bs[i] = start + width*float64(i)
	}
	return bs
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.n.Add(1)
	if v > 0 {
		h.sum.Add(v)
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(h.bounds) {
		h.inf.Add(1)
		return
	}
	h.counts[lo].Add(1)
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// BucketCount returns the count in bucket i (non-cumulative); i ==
// len(Bounds()) addresses the +Inf bucket.
func (h *Histogram) BucketCount(i int) int64 {
	if h == nil || i < 0 || i > len(h.counts) {
		return 0
	}
	if i == len(h.counts) {
		return h.inf.Load()
	}
	return h.counts[i].Load()
}

// Bounds returns the configured upper edges.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// Snapshot returns a consistent-enough copy for export: bucket counts,
// +Inf count, sum and total. (Individual loads are atomic; a scrape racing
// with observations may be off by in-flight samples, never torn.)
type HistogramSnapshot struct {
	Bounds []float64
	Counts []int64 // per-bucket, non-cumulative; same length as Bounds
	Inf    int64
	Sum    float64
	Count  int64
}

// Snapshot captures the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Inf:    h.inf.Load(),
		Sum:    h.sum.Value(),
		Count:  h.n.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-th quantile (0..1) from the bucket counts.
// Within the bucket containing the target rank it interpolates linearly
// between the previous and current bound; samples in the +Inf bucket
// report the last finite bound. With unit-width integer buckets (the gap
// histograms) the estimate is exact for any sample at a bucket edge.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return h.Snapshot().Quantile(q)
}

// Quantile estimates the q-th quantile from an already-captured
// snapshot — the form the exporters use, so /metrics and JSON scrapes
// derive p50/p95/p99 from one consistent capture.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	target := int64(math.Ceil(rank))
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum >= target {
			lower := 0.0
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			upper := s.Bounds[i]
			if upper <= lower {
				return upper
			}
			// Position of the target rank inside this bucket.
			frac := float64(target-(cum-c)) / float64(c)
			return lower + (upper-lower)*frac
		}
	}
	// Target rank is in the +Inf bucket.
	if len(s.Bounds) > 0 {
		return s.Bounds[len(s.Bounds)-1]
	}
	return 0
}
