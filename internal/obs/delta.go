package obs

import (
	"hash/maphash"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"smores/internal/floats"
)

// Delta-compressed counter streaming. A DeltaEncoder watches one
// registry and, on each call to Next, emits only the series whose value
// changed since the previous emission — the payload a telemetry stream
// sends instead of a full scrape. Every metric is flattened to scalar
// points first (histograms become one point per bucket plus _sum and
// _count), so a stream is a uniform sequence of (name, labels, value)
// updates and reconstruction is a plain overwrite-merge.
//
// Values travel verbatim (no numeric differencing), which makes
// reconstruction exact: applying a snapshot sequence to a StreamState
// yields bit-identical float64s to a full scrape at the same instant,
// including after counter resets (a value that went down is just a
// change) and for instruments registered after the stream started (a
// key the receiver has not seen is an insert).

// DeltaPoint is one changed scalar series value.
type DeltaPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// key renders the point's identity (name + sorted labels).
func (p DeltaPoint) key() string {
	if len(p.Labels) == 0 {
		return p.Name
	}
	ls := make([]Label, 0, len(p.Labels))
	for k, v := range p.Labels {
		ls = append(ls, Label{Key: k, Value: v})
	}
	slices.SortFunc(ls, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	b := make([]byte, 0, len(p.Name)+1+labelsLen(ls))
	b = append(append(b, p.Name...), '\xff')
	return string(appendLabels(b, ls))
}

// DeltaSnapshot is one stream emission: the points that changed since
// the previous snapshot (or the complete state when Reset is set, the
// stream's join/resync form).
type DeltaSnapshot struct {
	// Seq numbers emissions densely: a receiver holding state at Seq n
	// may apply exactly the snapshot with Seq n+1; any gap means
	// snapshots were dropped and the receiver needs a Reset snapshot.
	Seq uint64 `json:"seq"`
	// Session tags the originating session in multi-session streams.
	Session string `json:"session,omitempty"`
	// Reset marks a full-state snapshot (join or post-drop resync):
	// receivers clear their state before applying.
	Reset bool `json:"reset,omitempty"`
	// Final marks the last snapshot of a completed session.
	Final bool `json:"final,omitempty"`
	// Points are the changed (or, under Reset, all) series values.
	Points []DeltaPoint `json:"points"`
}

// DeltaEncoder tracks the last-emitted value of every flattened series
// of one registry. Not safe for concurrent use — one goroutine (the
// session sampler) owns it; the registry itself may be written
// concurrently, as emissions read its instruments atomically.
//
// Each registry series is flattened once, on first sight: its points'
// names, label maps and rendered keys are cached, so a later Next only
// reads values and compares them with the last emitted ones, and Full
// copies the cached slots in their kept key order. Emitted points share
// their label maps with the cache; receivers treat them as read-only.
type DeltaEncoder struct {
	reg    *Registry
	seq    uint64
	series map[seriesID]*deltaSeries
	slots  map[string]*deltaSlot // by rendered point key
	sorted []*deltaSlot          // every slot, in key order
	vals   []float64             // scratch: one series' current point values
	buf    []DeltaPoint          // scratch: the changed points of one Next
}

// seriesID names a registry series: its family and label signature.
type seriesID struct{ family, sig string }

// deltaSeries is one registry series flattened to points in emission
// order; slots[i] holds the last emitted state of points[i]'s key.
type deltaSeries struct {
	points []DeltaPoint // Name and Labels only
	slots  []*deltaSlot
}

// deltaSlot is the last emitted point under one rendered key. Two
// flattened points whose keys collide share a slot, exactly as they
// would share one entry of a map keyed by the rendered key.
type deltaSlot struct {
	key  string
	last DeltaPoint
	seen bool
}

// NewDeltaEncoder builds an encoder over reg with empty prior state, so
// the first Next emits every non-empty series.
func NewDeltaEncoder(reg *Registry) *DeltaEncoder {
	return &DeltaEncoder{reg: reg, series: make(map[seriesID]*deltaSeries),
		slots: make(map[string]*deltaSlot)}
}

// Seq returns the sequence number of the last emission (0 before any).
func (e *DeltaEncoder) Seq() uint64 {
	if e == nil {
		return 0
	}
	return e.seq
}

// flatten builds the cache entry for a series seen for the first time:
// one point per counter or gauge; for a histogram one per bucket, then
// +Inf, _sum and _count.
func (e *DeltaEncoder) flatten(f *family, s *series) *deltaSeries {
	labels := func(extra ...Label) map[string]string {
		if len(s.labels)+len(extra) == 0 {
			return nil
		}
		m := make(map[string]string, len(s.labels)+len(extra))
		for _, l := range s.labels {
			m[l.Key] = l.Value
		}
		for _, l := range extra {
			m[l.Key] = l.Value
		}
		return m
	}
	var ps []DeltaPoint
	if f.kind != KindHistogram {
		ps = []DeltaPoint{{Name: f.name, Labels: labels()}}
	} else {
		ps = make([]DeltaPoint, 0, len(s.h.bounds)+3)
		for _, b := range s.h.bounds {
			ps = append(ps, DeltaPoint{Name: f.name + "_bucket",
				Labels: labels(L("le", strconv.FormatFloat(b, 'g', -1, 64)))})
		}
		ps = append(ps,
			DeltaPoint{Name: f.name + "_bucket", Labels: labels(L("le", "+Inf"))},
			DeltaPoint{Name: f.name + "_sum", Labels: labels()},
			DeltaPoint{Name: f.name + "_count", Labels: labels()})
	}
	ds := &deltaSeries{points: ps, slots: make([]*deltaSlot, len(ps))}
	for i, p := range ps {
		k := p.key()
		sl := e.slots[k]
		if sl == nil {
			sl = &deltaSlot{key: k}
			e.slots[k] = sl
			e.sorted = append(e.sorted, sl)
		}
		ds.slots[i] = sl
	}
	return ds
}

// values appends a series' current point values in flatten's order.
func values(dst []float64, f *family, s *series) []float64 {
	switch f.kind {
	case KindCounter:
		return append(dst, float64(s.c.Value()))
	case KindFloatCounter:
		return append(dst, s.f.Value())
	case KindGauge:
		return append(dst, float64(s.g.Value()))
	}
	h := s.h
	for i := range h.counts {
		dst = append(dst, float64(h.counts[i].Load()))
	}
	return append(dst, float64(h.inf.Load()), h.sum.Value(), float64(h.n.Load()))
}

// sample diffs one series against the last emitted state, recording
// changed points in the scratch buffer.
func (e *DeltaEncoder) sample(f *family, s *series) {
	id := seriesID{f.name, s.sig}
	ds := e.series[id]
	if ds == nil {
		ds = e.flatten(f, s)
		e.series[id] = ds
	}
	e.vals = values(e.vals[:0], f, s)
	for i, v := range e.vals {
		sl := ds.slots[i]
		if sl.seen && floats.Eq(sl.last.Value, v) {
			continue
		}
		p := ds.points[i]
		p.Value = v
		sl.last, sl.seen = p, true
		e.buf = append(e.buf, p)
	}
}

// Next scans the registry and returns the snapshot of changed points.
// Emitted reports whether anything changed; when false the snapshot is
// empty, the sequence number does not advance, and nothing should be
// streamed. Newly appeared series always count as changed, including
// zero-valued ones (a receiver must learn the series exists).
func (e *DeltaEncoder) Next() (snap DeltaSnapshot, emitted bool) {
	if e == nil {
		return DeltaSnapshot{}, false
	}
	e.buf = e.buf[:0]
	known := len(e.sorted)
	e.reg.visit(e.sample)
	if len(e.sorted) > known {
		sort.Slice(e.sorted, func(i, j int) bool { return e.sorted[i].key < e.sorted[j].key })
	}
	if len(e.buf) == 0 {
		return DeltaSnapshot{Seq: e.seq}, false
	}
	e.seq++
	return DeltaSnapshot{Seq: e.seq, Points: append([]DeltaPoint(nil), e.buf...)}, true
}

// Full returns the complete last-emitted state as a Reset snapshot
// carrying the current sequence number: a receiver that applies it holds
// exactly the state after emission Seq and may continue with Seq+1.
// Points are sorted by (name, labels).
func (e *DeltaEncoder) Full() DeltaSnapshot {
	if e == nil {
		return DeltaSnapshot{Reset: true}
	}
	snap := DeltaSnapshot{Seq: e.seq, Reset: true, Points: make([]DeltaPoint, len(e.sorted))}
	for i, sl := range e.sorted {
		snap.Points[i] = sl.last
	}
	return snap
}

// StreamState reconstructs registry state on the receiving end of a
// delta stream by overwrite-merging snapshots.
//
// Applied points are keyed by identity — name plus label map — without
// rendering: a hash of the identity picks the candidates, compared by
// name and maps.Equal. Each new identity renders its key once and binds
// to the slot of that key, so identities whose rendered keys collide
// share one slot, as they would share one entry of a map keyed by the
// rendered key.
type StreamState struct {
	seq   uint64
	ids   map[uint64][]streamID  // by pointHash
	slots map[string]*streamSlot // by rendered key
	all   []*streamSlot          // every slot, in creation order
}

// streamID binds one point identity to the slot of its rendered key.
type streamID struct {
	name   string
	labels map[string]string
	slot   *streamSlot
}

// streamSlot is the last applied point under one rendered key; held is
// false until a point lands after the last Reset.
type streamSlot struct {
	key  string
	last DeltaPoint
	held bool
}

// pointSeed seeds pointHash; identities are only compared within one
// process.
var pointSeed = maphash.MakeSeed()

// pointHash hashes a point identity independently of label order.
func pointHash(name string, labels map[string]string) uint64 {
	h := maphash.String(pointSeed, name)
	for k, v := range labels {
		h += maphash.String(pointSeed, k)*0x9e3779b97f4a7c15 ^ maphash.String(pointSeed, v)
	}
	return h
}

// NewStreamState builds an empty reconstruction.
func NewStreamState() *StreamState {
	return &StreamState{ids: make(map[uint64][]streamID), slots: make(map[string]*streamSlot)}
}

// slot returns the slot holding p's identity, binding a new identity on
// first sight.
func (s *StreamState) slot(p DeltaPoint) *streamSlot {
	h := pointHash(p.Name, p.Labels)
	for _, id := range s.ids[h] {
		if id.name == p.Name && maps.Equal(id.labels, p.Labels) {
			return id.slot
		}
	}
	k := p.key()
	sl := s.slots[k]
	if sl == nil {
		sl = &streamSlot{key: k}
		s.slots[k] = sl
		s.all = append(s.all, sl)
	}
	s.ids[h] = append(s.ids[h], streamID{name: p.Name, labels: p.Labels, slot: sl})
	return sl
}

// Apply folds one snapshot into the state. Reset snapshots replace the
// state wholesale. Returns false (without applying) when a non-reset
// snapshot does not follow the held sequence number — the caller lost
// snapshots and must request a resync.
func (s *StreamState) Apply(snap DeltaSnapshot) bool {
	if s == nil {
		return false
	}
	if snap.Reset {
		for _, sl := range s.all {
			sl.held = false
		}
	} else if snap.Seq != s.seq+1 {
		return false
	}
	for _, p := range snap.Points {
		sl := s.slot(p)
		sl.last, sl.held = p, true
	}
	s.seq = snap.Seq
	return true
}

// Seq returns the sequence number of the last applied snapshot.
func (s *StreamState) Seq() uint64 {
	if s == nil {
		return 0
	}
	return s.seq
}

// Value returns a reconstructed point's value (0, false when the series
// was never streamed).
func (s *StreamState) Value(name string, labels map[string]string) (float64, bool) {
	if s == nil {
		return 0, false
	}
	sl := s.slots[DeltaPoint{Name: name, Labels: labels}.key()]
	if sl == nil || !sl.held {
		return 0, false
	}
	return sl.last.Value, true
}

// Points returns the reconstructed state sorted by (name, labels).
func (s *StreamState) Points() []DeltaPoint {
	if s == nil {
		return nil
	}
	held := make([]*streamSlot, 0, len(s.all))
	for _, sl := range s.all {
		if sl.held {
			held = append(held, sl)
		}
	}
	slices.SortFunc(held, func(a, b *streamSlot) int { return strings.Compare(a.key, b.key) })
	out := make([]DeltaPoint, len(held))
	for i, sl := range held {
		out[i] = sl.last
	}
	return out
}

// EqualPoints reports whether two point sets are identical: same names
// and labels, bit-identical values, in the same order. Points and Full
// return sorted slices.
func EqualPoints(a, b []DeltaPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || !floats.Eq(a[i].Value, b[i].Value) ||
			!maps.Equal(a[i].Labels, b[i].Labels) {
			return false
		}
	}
	return true
}
