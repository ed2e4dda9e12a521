package obs

import (
	"bytes"
	"encoding/json"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"smores/internal/floats"
)

// oracleEncoder is the delta encoder without a series cache: every
// emission re-flattens the whole registry through Gather and renders
// every point's key, and the full state is sorted by rendering keys in
// the comparator. DeltaEncoder must stay byte-identical to it.
type oracleEncoder struct {
	reg  *Registry
	seq  uint64
	last map[string]DeltaPoint
}

func newOracleEncoder(reg *Registry) *oracleEncoder {
	return &oracleEncoder{reg: reg, last: make(map[string]DeltaPoint)}
}

// oracleFlatten renders the registry's current state as scalar points.
func oracleFlatten(reg *Registry) []DeltaPoint {
	var out []DeltaPoint
	for _, f := range reg.Gather() {
		for _, s := range f.Series {
			labels := func(extra ...Label) map[string]string {
				if len(s.Labels)+len(extra) == 0 {
					return nil
				}
				m := make(map[string]string, len(s.Labels)+len(extra))
				for _, l := range s.Labels {
					m[l.Key] = l.Value
				}
				for _, l := range extra {
					m[l.Key] = l.Value
				}
				return m
			}
			if f.Kind != KindHistogram {
				out = append(out, DeltaPoint{Name: f.Name, Labels: labels(), Value: s.Value})
				continue
			}
			for i, b := range s.Hist.Bounds {
				out = append(out, DeltaPoint{
					Name:   f.Name + "_bucket",
					Labels: labels(L("le", strconv.FormatFloat(b, 'g', -1, 64))),
					Value:  float64(s.Hist.Counts[i]),
				})
			}
			out = append(out, DeltaPoint{
				Name: f.Name + "_bucket", Labels: labels(L("le", "+Inf")),
				Value: float64(s.Hist.Inf),
			})
			out = append(out, DeltaPoint{Name: f.Name + "_sum", Labels: labels(), Value: s.Hist.Sum})
			out = append(out, DeltaPoint{Name: f.Name + "_count", Labels: labels(), Value: float64(s.Hist.Count)})
		}
	}
	return out
}

// oracleKey renders a point's identity (name + sorted labels) with
// strings.Builder and strconv.Quote.
func oracleKey(p DeltaPoint) string {
	if len(p.Labels) == 0 {
		return p.Name
	}
	keys := make([]string, 0, len(p.Labels))
	for k := range p.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(p.Name)
	b.WriteByte('\xff')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(p.Labels[k]))
	}
	return b.String()
}

// sortPoints orders points by oracleKey, rendering each key once.
func sortPoints(ps []DeltaPoint) {
	type keyed struct {
		key string
		p   DeltaPoint
	}
	ks := make([]keyed, len(ps))
	for i, p := range ps {
		ks[i] = keyed{oracleKey(p), p}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	for i := range ks {
		ps[i] = ks[i].p
	}
}

func (e *oracleEncoder) next() (DeltaSnapshot, bool) {
	var changed []DeltaPoint
	for _, p := range oracleFlatten(e.reg) {
		k := oracleKey(p)
		old, seen := e.last[k]
		if seen && floats.Eq(old.Value, p.Value) {
			continue
		}
		e.last[k] = p
		changed = append(changed, p)
	}
	if len(changed) == 0 {
		return DeltaSnapshot{Seq: e.seq}, false
	}
	e.seq++
	return DeltaSnapshot{Seq: e.seq, Points: changed}, true
}

func (e *oracleEncoder) full() DeltaSnapshot {
	snap := DeltaSnapshot{Seq: e.seq, Reset: true, Points: make([]DeltaPoint, 0, len(e.last))}
	for _, p := range e.last {
		snap.Points = append(snap.Points, p)
	}
	sortPoints(snap.Points)
	return snap
}

// oracleState is the stream follower that renders every applied point's
// key into a map. StreamState must reconstruct the same points.
type oracleState struct {
	seq  uint64
	vals map[string]DeltaPoint
}

func (s *oracleState) apply(snap DeltaSnapshot) bool {
	if snap.Reset {
		s.vals = make(map[string]DeltaPoint)
	} else if snap.Seq != s.seq+1 {
		return false
	}
	for _, p := range snap.Points {
		s.vals[oracleKey(p)] = p
	}
	s.seq = snap.Seq
	return true
}

func (s *oracleState) points() []DeltaPoint {
	out := make([]DeltaPoint, 0, len(s.vals))
	for _, p := range s.vals {
		out = append(out, p)
	}
	sortPoints(out)
	return out
}

// matchState applies snap to a follower and its oracle and fails unless
// they agree on acceptance, on the reconstructed points and on the value
// of every point the oracle holds.
func matchState(t testing.TB, stage string, s *StreamState, o *oracleState, snap DeltaSnapshot) {
	t.Helper()
	if ok, want := s.Apply(snap), o.apply(snap); ok != want {
		t.Fatalf("%s: Apply(seq %d) = %v, oracle %v", stage, snap.Seq, ok, want)
	}
	want := o.points()
	if got := s.Points(); !EqualPoints(got, want) {
		t.Fatalf("%s: follower diverged from the oracle:\ngot  %+v\nwant %+v", stage, got, want)
	}
	for _, p := range want {
		if v, ok := s.Value(p.Name, p.Labels); !ok || !floats.Eq(v, p.Value) {
			t.Fatalf("%s: Value(%s) = (%v, %v), want %v", stage, oracleKey(p), v, ok, p.Value)
		}
	}
}

// matchOracle emits from both encoders and fails unless the snapshots,
// and then both full states, marshal to identical JSON.
func matchOracle(t testing.TB, stage string, enc *DeltaEncoder, or *oracleEncoder) (DeltaSnapshot, bool) {
	t.Helper()
	mustJSON := func(v any) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		return raw
	}
	snap, emitted := enc.Next()
	want, wantEmitted := or.next()
	if got, exp := mustJSON(snap), mustJSON(want); emitted != wantEmitted || !bytes.Equal(got, exp) {
		t.Fatalf("%s: Next diverged from the oracle:\ngot  %v %s\nwant %v %s", stage, emitted, got, wantEmitted, exp)
	}
	if got, exp := mustJSON(enc.Full()), mustJSON(or.full()); !bytes.Equal(got, exp) {
		t.Fatalf("%s: Full diverged from the oracle:\ngot  %s\nwant %s", stage, got, exp)
	}
	return snap, emitted
}

// TestDeltaEncoderMatchesOracle holds the cached encoder byte-identical
// to the uncached one across emissions whose registries gain families
// and series, carry histograms, need label quoting, and render colliding
// keys (a histogram's own "le" label, a counter named like a histogram
// point, duplicate label keys).
func TestDeltaEncoderMatchesOracle(t *testing.T) {
	reg := NewRegistry()
	enc, or := NewDeltaEncoder(reg), newOracleEncoder(reg)
	matchOracle(t, "empty", enc, or)

	quoted := []string{`say "hi"`, "a,b", "k=v", "bad\xffbyte", "Grüße, 世界", ""}
	c := reg.Counter("o_reads_total", "h", L("app", quoted[0]))
	h := reg.Histogram("o_gap", "h", []float64{0.5, 1, 2.5}, L("ch", quoted[1]))
	c.Add(2)
	h.Observe(1)
	matchOracle(t, "first", enc, or)
	matchOracle(t, "unchanged", enc, or)

	for i, v := range quoted {
		reg.Counter("o_reads_total", "h", L("app", v), L("ch", strconv.Itoa(i))).Add(int64(i))
		reg.Gauge("o_depth", "h", L("q", v)).Set(int64(-i))
		reg.Histogram("o_gap", "h", nil, L("ch", v), L("app", quoted[len(quoted)-1-i])).Observe(float64(i))
		reg.FloatCounter("o_energy_fj", "h", L(v, "x")).Add(0.1 * float64(i+1))
		matchOracle(t, "grow "+strconv.Itoa(i), enc, or)
	}

	// Colliding keys share one last-emitted entry.
	reg.Histogram("o_le", "h", []float64{1}, L("le", "a")).Observe(0.5)
	reg.Histogram("o_le", "h", nil, L("le", "b")).Observe(2)
	reg.Counter("o_gap_bucket", "h", L("ch", quoted[1]), L("le", "1")).Add(9)
	reg.Gauge("o_dup", "h", L("k", "1"), L("k", "2")).Set(3)
	reg.Gauge("o_dup", "h", L("k", "2")).Set(4)
	matchOracle(t, "collisions", enc, or)
	for i := 0; i < 3; i++ {
		c.Inc()
		h.Observe(float64(i))
		reg.Gauge("o_depth", "h", L("q", quoted[i])).Set(int64(i * i))
		matchOracle(t, "bump "+strconv.Itoa(i), enc, or)
	}
}

// TestDeltaRoundTrip is the streaming correctness gate: at every
// emission point, a receiver that applied the delta sequence holds
// exactly the encoder's full state — through counter growth, gauge
// resets, histogram observations, and instruments registered after the
// stream started.
func TestDeltaRoundTrip(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("s_reads_total", "h", L("app", "bfs"))
	g := reg.Gauge("s_depth", "h")
	h := reg.Histogram("s_gaps", "h", []float64{1, 2})

	enc := NewDeltaEncoder(reg)
	rx := NewStreamState()

	check := func(stage string) {
		t.Helper()
		snap, emitted := enc.Next()
		if !emitted {
			t.Fatalf("%s: expected changes to emit", stage)
		}
		if !rx.Apply(snap) {
			t.Fatalf("%s: apply rejected seq %d (held %d)", stage, snap.Seq, rx.Seq())
		}
		if !EqualPoints(rx.Points(), enc.Full().Points) {
			t.Fatalf("%s: reconstruction diverged:\nrx  %+v\nenc %+v",
				stage, rx.Points(), enc.Full().Points)
		}
	}

	c.Add(3)
	g.Set(9)
	h.Observe(1.5)
	check("initial")

	// Unchanged registry: nothing emitted, seq stays put.
	if snap, emitted := enc.Next(); emitted || len(snap.Points) != 0 {
		t.Fatalf("no-change scan emitted %+v", snap)
	}

	c.Add(1)
	check("counter grows")

	// Gauge reset to zero: a decrease must stream (absolute values, not
	// numeric diffs, so resets reconstruct exactly).
	g.Set(0)
	check("gauge reset")

	// Late-registered instruments: a new family and a new series inside
	// an existing family both reach the receiver, even zero-valued.
	reg.FloatCounter("s_energy_fj", "h").Add(0.1 + 0.2) // deliberate float dust
	reg.Counter("s_reads_total", "h", L("app", "sssp")) // zero-valued new series
	check("late registration")

	h.Observe(0.5)
	h.Observe(99)
	check("histogram buckets")

	// The wire format survives JSON: encode/decode every snapshot shape.
	full := enc.Full()
	raw, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	var back DeltaSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	rx2 := NewStreamState()
	if !rx2.Apply(back) {
		t.Fatal("reset snapshot must always apply")
	}
	if !EqualPoints(rx2.Points(), full.Points) {
		t.Fatalf("JSON round-trip diverged")
	}
}

// TestDeltaOnlyChangedSeries pins the compression property: an emission
// carries exactly the touched series, not the whole registry.
func TestDeltaOnlyChangedSeries(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("a_total", "h")
	reg.Counter("b_total", "h").Add(4)
	enc := NewDeltaEncoder(reg)
	if snap, ok := enc.Next(); !ok || len(snap.Points) != 2 {
		t.Fatalf("first scan must carry both series: %+v", snap)
	}
	a.Inc()
	snap, ok := enc.Next()
	if !ok || len(snap.Points) != 1 || snap.Points[0].Name != "a_total" {
		t.Fatalf("second scan must carry only a_total: %+v", snap)
	}
	if !floats.Eq(snap.Points[0].Value, 1) {
		t.Fatalf("a_total = %v", snap.Points[0].Value)
	}
}

// TestStreamStateGapDetection: a receiver that missed an emission
// refuses the out-of-order snapshot and accepts a Reset resync.
func TestStreamStateGapDetection(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "h")
	enc := NewDeltaEncoder(reg)
	rx := NewStreamState()

	c.Inc()
	s1, _ := enc.Next()
	if !rx.Apply(s1) {
		t.Fatal("seq 1 must apply")
	}
	c.Inc()
	enc.Next() // dropped on the floor
	c.Inc()
	s3, _ := enc.Next()
	if rx.Apply(s3) {
		t.Fatal("gapped snapshot must be rejected")
	}
	full := enc.Full()
	if !rx.Apply(full) {
		t.Fatal("resync must apply")
	}
	if v, ok := rx.Value("c_total", nil); !ok || !floats.Eq(v, 3) {
		t.Fatalf("post-resync value = %v, %v", v, ok)
	}
	// And the stream continues from the resync point.
	c.Inc()
	s4, _ := enc.Next()
	if !rx.Apply(s4) {
		t.Fatal("post-resync delta must apply")
	}
}

// TestDeltaMidStreamRegistration pins the late-registration contract in
// isolation: a counter family created after the stream started reaches a
// receiver that joined at seq 0, and the encoder's Full reflects it.
func TestDeltaMidStreamRegistration(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pre_total", "h").Add(1)
	enc := NewDeltaEncoder(reg)
	rx := NewStreamState()
	s1, _ := enc.Next()
	if !rx.Apply(s1) {
		t.Fatal("seq 1 must apply")
	}

	// New family and a new labeled series in an existing family, both
	// registered mid-stream; the zero-valued one must stream too (the
	// receiver has to learn the series exists).
	reg.Counter("mid_total", "h", L("app", "bfs")).Add(7)
	reg.Counter("pre_total", "h", L("app", "late"))
	s2, emitted := enc.Next()
	if !emitted || len(s2.Points) != 2 {
		t.Fatalf("mid-stream registration must emit both new series: %+v", s2)
	}
	if !rx.Apply(s2) {
		t.Fatal("seq 2 must apply")
	}
	if v, ok := rx.Value("mid_total", map[string]string{"app": "bfs"}); !ok || !floats.Eq(v, 7) {
		t.Fatalf("mid-stream family = %v, %v", v, ok)
	}
	if v, ok := rx.Value("pre_total", map[string]string{"app": "late"}); !ok || !floats.IsZero(v) {
		t.Fatalf("zero-valued mid-stream series = %v, %v", v, ok)
	}
	if !EqualPoints(rx.Points(), enc.Full().Points) {
		t.Fatal("reconstruction diverged after mid-stream registration")
	}
}

// TestStreamStateResetEmptyRegistry: a Reset snapshot from an encoder
// over an empty registry (a session that never emitted) carries no
// points but must still apply, clearing any stale receiver state.
func TestStreamStateResetEmptyRegistry(t *testing.T) {
	enc := NewDeltaEncoder(NewRegistry())
	full := enc.Full()
	if !full.Reset || full.Seq != 0 || len(full.Points) != 0 {
		t.Fatalf("empty-registry Full = %+v", full)
	}

	rx := NewStreamState()
	rx.Apply(DeltaSnapshot{Seq: 5, Reset: true, Points: []DeltaPoint{{Name: "stale_total", Value: 3}}})
	if len(rx.Points()) != 1 {
		t.Fatal("seed state missing")
	}
	if !rx.Apply(full) {
		t.Fatal("empty reset must apply over populated state")
	}
	if got := rx.Points(); len(got) != 0 {
		t.Fatalf("empty reset did not clear state: %+v", got)
	}
	if rx.Seq() != 0 {
		t.Fatalf("reset must adopt the snapshot's seq, got %d", rx.Seq())
	}
}

func TestDeltaNilSafe(t *testing.T) {
	var enc *DeltaEncoder
	if _, emitted := enc.Next(); emitted {
		t.Fatal("nil encoder emitted")
	}
	if _, emitted := NewDeltaEncoder(nil).Next(); emitted {
		t.Fatal("encoder over a nil registry emitted")
	}
	if enc.Seq() != 0 || len(enc.Full().Points) != 0 {
		t.Fatal("nil encoder state leak")
	}
	var rx *StreamState
	if rx.Apply(DeltaSnapshot{}) {
		t.Fatal("nil state applied")
	}
	if rx.Points() != nil || rx.Seq() != 0 {
		t.Fatal("nil state not inert")
	}
	if _, ok := rx.Value("x", nil); ok {
		t.Fatal("nil state has values")
	}
}

// TestDeltaEncoderConcurrentRegistration scans a registry while other
// goroutines register families and series and bump them: every delta
// applies in order, and once the writers stop the encoder's full state
// equals the oracle's.
func TestDeltaEncoderConcurrentRegistration(t *testing.T) {
	reg := NewRegistry()
	enc := NewDeltaEncoder(reg)
	rx := NewStreamState()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := "cr_" + strconv.Itoa((w+i)%7) + "_total"
				reg.Counter(name, "h", L("w", strconv.Itoa(w)), L("i", strconv.Itoa(i%13))).Inc()
				reg.Histogram("cr_gap", "h", []float64{1, 2}, L("w", strconv.Itoa(w))).Observe(float64(i % 3))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if snap, emitted := enc.Next(); emitted && !rx.Apply(snap) {
			t.Fatalf("seq %d rejected at %d", snap.Seq, rx.Seq())
		}
	}
	if snap, emitted := enc.Next(); emitted && !rx.Apply(snap) {
		t.Fatalf("seq %d rejected at %d", snap.Seq, rx.Seq())
	}
	or := newOracleEncoder(reg)
	or.next()
	if !EqualPoints(enc.Full().Points, or.full().Points) || !EqualPoints(rx.Points(), or.full().Points) {
		t.Fatal("state after concurrent registration diverged from the oracle")
	}
}

// FuzzDeltaStream drives a registry with fuzzed operations — register a
// counter, float counter, gauge or histogram series with fuzzed labels,
// bump values, emit, re-join — and checks at every emission that the
// encoder matches the oracle byte for byte, that a receiver following
// every delta holds exactly Full, and that a receiver re-joined from a
// Reset snapshot converges on it too.
func FuzzDeltaStream(f *testing.F) {
	// Mixed register, bump, emit and re-join sequences, some with labels
	// that need quoting.
	f.Add([]byte{0, 0, 1, 2, 'a', 2, 1, 0, 3, 2, 0, 3, 1, 3, 2})
	f.Add([]byte{0, 3, 2, 2, 'l', 'e', 1, 'x', 1, 0, 9, 2, 0, 3, 0, 0, 4, 2, 3, 1, 1, 2})
	f.Add([]byte("\x00\x01\x01\x00\x03\"\xff,\x01\x00\x07\x02\x00\x02\x02\x03\x00\x03\x02"))
	f.Add([]byte("\x00\x00\x02\x03\x02=\xc3\xa9\x00\x01\x01\x00\x00\x02\x01\x00\x05\x02\x03\x01\x00\x05\x02"))
	// Histogram series labelled le="a" and le="b" and a counter
	// fz_gap_bucket{le="1"}: their bucket points render colliding keys.
	f.Add([]byte{
		0, 3, 0, 1, 0, 2, 1, 'a', // fz_gap{le="a"}
		0, 3, 0, 1, 0, 2, 1, 'b', // fz_gap{le="b"}
		0, 0, 1, 1, 0, 2, 1, '1', // fz_gap_bucket{le="1"}
		2, 1, 0, 5, 2, 1, 1, 64, 1, 2, 7, 2, 3, 1, 0, 96, 2,
	})
	f.Fuzz(func(t *testing.T, data []byte) { checkDeltaStream(t, data) })
}

const maxDeltaStreamOps = 256

// checkDeltaStream is one FuzzDeltaStream input. Only the first
// maxDeltaStreamOps bytes are read: each emission checks the whole
// state against the oracle, so the run time grows with the square of
// the input length, and longer inputs only repeat the same operations.
func checkDeltaStream(t *testing.T, data []byte) {
	if len(data) > maxDeltaStreamOps {
		data = data[:maxDeltaStreamOps]
	}
	names := [][]string{
		KindCounter:      {"fz_reads_total", "fz_gap_bucket"},
		KindFloatCounter: {"fz_energy_fj", "fz_gap_sum"},
		KindGauge:        {"fz_depth"},
		KindHistogram:    {"fz_gap"},
	}
	labelKeys := []string{"app", "ch", "le"}
	bounds := []float64{0.5, 1, 4}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	str := func() string {
		n := min(int(next()%6), len(data))
		s := string(data[:n])
		data = data[n:]
		return s
	}
	reg := NewRegistry()
	enc, or := NewDeltaEncoder(reg), newOracleEncoder(reg)
	rx, orx := NewStreamState(), &oracleState{vals: map[string]DeltaPoint{}}
	var joiner *StreamState
	var ojoiner *oracleState
	var bumps []func(byte)
	for round := 0; len(data) > 0; round++ {
		switch next() % 4 {
		case 0: // register
			kind := Kind(next() % 4)
			name := names[kind][int(next())%len(names[kind])]
			labels := make([]Label, next()%3)
			for i := range labels {
				k := str()
				if b := next(); b < 200 {
					k = labelKeys[int(b)%len(labelKeys)]
				}
				labels[i] = L(k, str())
			}
			switch kind {
			case KindCounter:
				c := reg.Counter(name, "h", labels...)
				bumps = append(bumps, func(b byte) { c.Add(int64(b)) })
			case KindFloatCounter:
				c := reg.FloatCounter(name, "h", labels...)
				bumps = append(bumps, func(b byte) { c.Add(float64(b) / 10) })
			case KindGauge:
				g := reg.Gauge(name, "h", labels...)
				bumps = append(bumps, func(b byte) { g.Set(int64(b) - 128) })
			case KindHistogram:
				h := reg.Histogram(name, "h", bounds, labels...)
				bumps = append(bumps, func(b byte) { h.Observe(float64(b) / 32) })
			}
		case 1: // bump
			if len(bumps) > 0 {
				bumps[int(next())%len(bumps)](next())
			}
		case 2: // emit
			stage := "round " + strconv.Itoa(round)
			snap, emitted := matchOracle(t, stage, enc, or)
			if !emitted {
				continue
			}
			full := enc.Full().Points
			for _, f := range []struct {
				s *StreamState
				o *oracleState
			}{{rx, orx}, {joiner, ojoiner}} {
				if f.s == nil {
					continue
				}
				matchState(t, stage, f.s, f.o, snap)
				if f.s.Seq() != snap.Seq {
					t.Fatalf("%s: seq %d rejected at %d", stage, snap.Seq, f.s.Seq())
				}
				if !EqualPoints(f.s.Points(), full) {
					t.Fatalf("%s: reconstruction diverged:\nrx  %+v\nenc %+v", stage, f.s.Points(), full)
				}
			}
		case 3: // re-join from a Reset snapshot
			joiner, ojoiner = NewStreamState(), &oracleState{vals: map[string]DeltaPoint{}}
			full := enc.Full()
			matchState(t, "rejoin", joiner, ojoiner, full)
			matchState(t, "resync", rx, orx, full)
			if !EqualPoints(joiner.Points(), full.Points) {
				t.Fatalf("round %d: Reset re-join diverged", round)
			}
		}
	}
	matchOracle(t, "final", enc, or)
}
