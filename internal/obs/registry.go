package obs

import (
	"fmt"
	"sort"
	"sync"
)

// Kind tags a metric family's type.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindFloatCounter
	KindGauge
	KindHistogram
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter, KindFloatCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// series is one labeled instrument inside a family.
type series struct {
	sig    string  // labelSignature: the series' identity inside its family
	labels []Label // sorted
	c      *Counter
	f      *FloatCounter
	g      *Gauge
	h      *Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	bounds []float64 // histograms only

	mu     sync.Mutex
	series map[string]*series
	// order lists the series in registration order. It is append-only,
	// so a slice header copied under mu stays a valid snapshot.
	order []*series
}

// snapshot returns the family's series in registration order.
func (f *family) snapshot() []*series {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.order
}

// Registry is the central metric table. Instrument lookup
// (GetOrCreate) takes a lock; the returned instrument handles are then
// lock-free, so modules resolve handles once at construction time and
// the hot path never touches the registry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	// sorted lists the families by name. Registration replaces it rather
	// than editing it in place, so a slice header copied under mu stays a
	// valid snapshot.
	sorted []*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// familyFor returns (creating if needed) the named family, enforcing
// kind consistency. Panics on a kind conflict: two modules registering
// the same name with different types is a programming error the process
// should not limp past.
func (r *Registry) familyFor(name, help string, kind Kind, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind,
			bounds: append([]float64(nil), bounds...),
			series: make(map[string]*series)}
		r.families[name] = f
		i := sort.Search(len(r.sorted), func(i int) bool { return r.sorted[i].name > name })
		sorted := make([]*family, 0, len(r.sorted)+1)
		sorted = append(append(append(sorted, r.sorted[:i]...), f), r.sorted[i:]...)
		r.sorted = sorted
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %v and %v", name, f.kind, kind))
	}
	return f
}

func (f *family) seriesFor(labels []Label) *series {
	sig := labelSignature(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[sig]
	if !ok {
		s = &series{sig: sig, labels: sortedLabels(labels)}
		switch f.kind {
		case KindCounter:
			s.c = &Counter{}
		case KindFloatCounter:
			s.f = &FloatCounter{}
		case KindGauge:
			s.g = &Gauge{}
		case KindHistogram:
			s.h = newHistogram(f.bounds)
		}
		f.series[sig] = s
		f.order = append(f.order, s)
	}
	return s
}

// Counter returns the counter for name+labels, creating it on first use.
// Repeated calls with the same name and labels return the same
// instrument, so concurrent writers share one atomic cell.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.familyFor(name, help, KindCounter, nil).seriesFor(labels).c
}

// FloatCounter returns the float counter for name+labels.
func (r *Registry) FloatCounter(name, help string, labels ...Label) *FloatCounter {
	if r == nil {
		return nil
	}
	return r.familyFor(name, help, KindFloatCounter, nil).seriesFor(labels).f
}

// Gauge returns the gauge for name+labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.familyFor(name, help, KindGauge, nil).seriesFor(labels).g
}

// Histogram returns the histogram for name+labels. bounds are inclusive
// upper edges; they apply on first creation of the family (later calls
// reuse the family's bounds).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.familyFor(name, help, KindHistogram, bounds).seriesFor(labels).h
}

// SeriesPoint is one exported series value.
type SeriesPoint struct {
	Labels []Label
	Value  float64           // counters and gauges
	Hist   HistogramSnapshot // histograms only
}

// Family is the export view of one metric family.
type Family struct {
	Name   string
	Help   string
	Kind   Kind
	Series []SeriesPoint
}

// Gather snapshots every family, sorted by name; series appear in
// registration order. Safe to call concurrently with updates.
func (r *Registry) Gather() []Family {
	if r == nil {
		return nil
	}
	fams := r.snapshot()
	out := make([]Family, 0, len(fams))
	for _, f := range fams {
		ef := Family{Name: f.name, Help: f.help, Kind: f.kind}
		for _, s := range f.snapshot() {
			p := SeriesPoint{Labels: append([]Label(nil), s.labels...)}
			switch f.kind {
			case KindCounter:
				p.Value = float64(s.c.Value())
			case KindFloatCounter:
				p.Value = s.f.Value()
			case KindGauge:
				p.Value = float64(s.g.Value())
			case KindHistogram:
				p.Hist = s.h.Snapshot()
			}
			ef.Series = append(ef.Series, p)
		}
		out = append(out, ef)
	}
	return out
}

// snapshot returns the families sorted by name.
func (r *Registry) snapshot() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sorted
}

// visit calls fn on every series in Gather's order (families by name,
// series in registration order) without copying labels or values.
func (r *Registry) visit(fn func(f *family, s *series)) {
	if r == nil {
		return
	}
	for _, f := range r.snapshot() {
		for _, s := range f.snapshot() {
			fn(f, s)
		}
	}
}

// Value returns the current value of a counter/gauge series, or 0 when
// the series does not exist. Intended for tests and reconciliation.
func (r *Registry) Value(name string, labels ...Label) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	f, ok := r.families[name]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	sig := labelSignature(labels)
	f.mu.Lock()
	s, ok := f.series[sig]
	f.mu.Unlock()
	if !ok {
		return 0
	}
	switch f.kind {
	case KindCounter:
		return float64(s.c.Value())
	case KindFloatCounter:
		return s.f.Value()
	case KindGauge:
		return float64(s.g.Value())
	default:
		return 0
	}
}

// HistogramSeries returns the histogram for an existing series (nil when
// absent) — for tests and reconciliation.
func (r *Registry) HistogramSeries(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	f, ok := r.families[name]
	r.mu.Unlock()
	if !ok || f.kind != KindHistogram {
		return nil
	}
	sig := labelSignature(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[sig]
	if !ok {
		return nil
	}
	return s.h
}
