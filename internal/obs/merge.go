package obs

import (
	"fmt"

	"smores/internal/floats"
)

// Merge folds every series of src into r, summing values: counters and
// float counters add, gauges add (so merged gauges are fleet totals, not
// last-writer-wins), histograms merge bucket-wise. Families and series
// missing from r are created with src's help text and bounds. The merge
// is conservation-preserving: after merging registries A and B into an
// empty registry, every series value equals the sum of its values in A
// and B (exactly for integer instruments, with identical addition order
// for floats).
//
// Merge snapshots src via Gather, so it is safe to call while src is
// still being written; a racing update may land in the next merge. A
// family registered with different kinds in the two registries is an
// error (mirroring the registry's own kind-consistency panic, but
// recoverable — fleet roll-ups must not take down the service).
func (r *Registry) Merge(src *Registry) error {
	if r == nil || src == nil {
		return nil
	}
	for _, f := range src.Gather() {
		r.mu.Lock()
		if existing, ok := r.families[f.Name]; ok && existing.kind != f.Kind {
			r.mu.Unlock()
			return fmt.Errorf("obs: merge: metric %q is %v here but %v in source",
				f.Name, existing.kind, f.Kind)
		}
		r.mu.Unlock()
		for _, s := range f.Series {
			switch f.Kind {
			case KindCounter:
				r.Counter(f.Name, f.Help, s.Labels...).Add(int64(s.Value))
			case KindFloatCounter:
				r.FloatCounter(f.Name, f.Help, s.Labels...).Add(s.Value)
			case KindGauge:
				r.Gauge(f.Name, f.Help, s.Labels...).Add(int64(s.Value))
			case KindHistogram:
				h := r.Histogram(f.Name, f.Help, s.Hist.Bounds, s.Labels...)
				if err := h.merge(s.Hist); err != nil {
					return fmt.Errorf("obs: merge %q: %w", f.Name, err)
				}
			}
		}
	}
	return nil
}

// merge adds a snapshot's buckets into the histogram. Bounds must match
// (families keep their first-registration bounds, so a mismatch means
// two registries defined the same family differently).
func (h *Histogram) merge(s HistogramSnapshot) error {
	if h == nil {
		return nil
	}
	if len(s.Bounds) != len(h.bounds) {
		return fmt.Errorf("bucket counts differ (%d vs %d)", len(h.bounds), len(s.Bounds))
	}
	for i, b := range s.Bounds {
		if !floats.Eq(b, h.bounds[i]) {
			return fmt.Errorf("bucket bound %d differs (%v vs %v)", i, h.bounds[i], b)
		}
	}
	for i, c := range s.Counts {
		if c > 0 {
			h.counts[i].Add(c)
		}
	}
	if s.Inf > 0 {
		h.inf.Add(s.Inf)
	}
	h.sum.Add(s.Sum)
	if s.Count > 0 {
		h.n.Add(s.Count)
	}
	return nil
}

// Merge adds every cell of src into p — the fleet roll-up path for
// per-session energy-attribution profiles. Nil receivers and sources are
// inert, like every profile operation.
func (p *Profile) Merge(src *Profile) {
	if p == nil || src == nil {
		return
	}
	// Both sides drain: src so every finished write is merged, p so its
	// own pending symbols land before the merged sums, as eager
	// attribution would have ordered them.
	src.drain()
	p.drain()
	for i := src.nextTouched(0); i < ProfileCells; i = src.nextTouched(i + 1) {
		p.addCell(i, src.energy[i].Value(), src.count[i].Load())
	}
}
