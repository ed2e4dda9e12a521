package obs

import (
	"bytes"
	"strings"
	"testing"

	"smores/internal/floats"
)

// TestParseRegistryJSONRoundTrip: WriteJSON → ParseRegistryJSON yields a
// registry whose flattened points match the original exactly, with the
// single documented exception that integer counters come back as float
// counters (same exported values).
func TestParseRegistryJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("p_reads_total", "reads", L("app", "bfs")).Add(41)
	reg.Counter("p_reads_total", "reads", L("app", "sssp")) // zero-valued series
	reg.Gauge("p_depth", "depth").Set(17)
	reg.FloatCounter("p_energy_fj", "energy").Add(0.1 + 0.2)
	h := reg.Histogram("p_gaps", "gaps", []float64{1, 2, 4}, L("ch", "0"))
	for _, v := range []float64{0.5, 1.5, 3, 99} {
		h.Observe(v)
	}
	reg.Histogram("p_empty", "empty hist", []float64{1}) // zero observations

	var buf bytes.Buffer
	if err := WriteJSON(&buf, reg); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseRegistryJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Flattened points (which fold kind differences away) must match
	// bit-for-bit, including the zero-valued series and empty histogram.
	want := oracleFlatten(reg)
	got := oracleFlatten(parsed)
	sortPoints(want)
	sortPoints(got)
	if !EqualPoints(got, want) {
		t.Fatalf("parsed registry diverged:\ngot  %+v\nwant %+v", got, want)
	}

	// Parsed registries must be mutually mergeable (the federation path):
	// parse twice, merge, and every scalar doubles.
	var buf2 bytes.Buffer
	if err := WriteJSON(&buf2, reg); err != nil {
		t.Fatal(err)
	}
	parsed2, err := ParseRegistryJSON(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	if err := parsed.Merge(parsed2); err != nil {
		t.Fatal(err)
	}
	if got := parsed.Value("p_reads_total", L("app", "bfs")); !floats.Eq(got, 82) {
		t.Fatalf("merged parsed counter = %v, want 82", got)
	}
	if hh := parsed.HistogramSeries("p_gaps", L("ch", "0")); hh.Count() != 8 {
		t.Fatalf("merged parsed histogram count = %d, want 8", hh.Count())
	}
}

func TestParseRegistryJSONRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":           `{{{`,
		"unknown kind":       `[{"name":"x","kind":"summary","series":[{"value":1}]}]`,
		"histogram w/o body": `[{"name":"x","kind":"histogram","series":[{"value":1}]}]`,
		"count/bound skew":   `[{"name":"x","kind":"histogram","series":[{"histogram":{"bounds":[1],"counts":[1,2],"inf":0,"sum":0,"count":3}}]}]`,
	}
	for name, doc := range cases {
		if _, err := ParseRegistryJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: parse accepted malformed document", name)
		}
	}
}

// TestParseProfileJSONRoundTrip: WriteProfileJSON → ParseProfileJSON
// reconstructs every cell bit-identically, across all name-mapped
// dimensions including the agg/mix pseudo-coordinates.
func TestParseProfileJSONRoundTrip(t *testing.T) {
	p := NewProfile()
	p.AddSymbol(PhaseMTAPayload, ProfileCodecMTA, 0, 1, Trans1DV, 0.1+0.2)
	p.AddSymbol(PhaseDBIWire, ProfileCodecPAM4DBI, 17, 3, Trans3DV, 7.5)
	p.AddSymbol(PhaseSparsePayload, ProfileCodecIndex(5), 9, 0, TransSeam, 12)
	p.AddAggregate(PhaseLogic, ProfileCodecPAM4, 99.25, 1024)
	p.Add(PhaseReplay, ProfileCodecIndex(8), 3, 2, Trans2DV, 0, 6) // count-only cell

	var buf bytes.Buffer
	if err := WriteProfileJSON(&buf, p.Snapshot()); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseProfileJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualCells(ProfileDeltaCells(parsed.Snapshot()), ProfileDeltaCells(p.Snapshot())) {
		t.Fatal("parsed profile cells diverged")
	}
	if !floats.Eq(parsed.TotalEnergy(), p.TotalEnergy()) {
		t.Fatalf("parsed total %v != %v", parsed.TotalEnergy(), p.TotalEnergy())
	}
	if parsed.TotalSymbols() != p.TotalSymbols() {
		t.Fatalf("parsed symbols %d != %d", parsed.TotalSymbols(), p.TotalSymbols())
	}
}

func TestParseProfileJSONRejectsUnknownNames(t *testing.T) {
	cases := map[string]string{
		"phase":      `{"cells":[{"phase":"warp-drive","codec":"mta","wire":"0","level":"L0","transition":"0dv","fj":1}]}`,
		"codec":      `{"cells":[{"phase":"logic","codec":"4b99s","wire":"0","level":"L0","transition":"0dv","fj":1}]}`,
		"wire":       `{"cells":[{"phase":"logic","codec":"mta","wire":"18","level":"L0","transition":"0dv","fj":1}]}`,
		"level":      `{"cells":[{"phase":"logic","codec":"mta","wire":"0","level":"L9","transition":"0dv","fj":1}]}`,
		"transition": `{"cells":[{"phase":"logic","codec":"mta","wire":"0","level":"L0","transition":"warp","fj":1}]}`,
	}
	for name, doc := range cases {
		if _, err := ParseProfileJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("unknown %s accepted", name)
		}
	}
}

// TestLabelsFromMapSortedOrder: the JSON decoder hands labelsFromMap a
// Go map, whose iteration order is randomized per range. The rebuilt
// label slice must come out in sorted key order every time — the
// canonical order every downstream family key and re-export assumes.
// Many repetitions so an unsorted implementation is caught with
// overwhelming probability.
func TestLabelsFromMapSortedOrder(t *testing.T) {
	m := map[string]string{
		"app": "bfs", "ch": "0", "node": "7", "phase": "mta", "zone": "hot",
	}
	for i := 0; i < 200; i++ {
		got := labelsFromMap(m)
		if len(got) != len(m) {
			t.Fatalf("iteration %d: %d labels, want %d", i, len(got), len(m))
		}
		for j := 1; j < len(got); j++ {
			if got[j-1].Key >= got[j].Key {
				t.Fatalf("iteration %d: labels out of order: %+v", i, got)
			}
		}
		for _, l := range got {
			if m[l.Key] != l.Value {
				t.Fatalf("iteration %d: label %q = %q, want %q", i, l.Key, l.Value, m[l.Key])
			}
		}
	}
}

// TestParseRegistryJSONByteIdentity: parsing the same export repeatedly
// and re-exporting must produce byte-identical documents — the
// federation roll-up scrapes peers in a loop and any per-parse order
// jitter would break the cross-process byte-identity contract.
func TestParseRegistryJSONByteIdentity(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("fed_reads_total", "reads",
		L("app", "bfs"), L("ch", "2"), L("node", "9"), L("zone", "a")).Add(41)
	reg.FloatCounter("fed_energy_fj", "energy",
		L("phase", "mta"), L("ch", "0"), L("app", "sssp")).Add(12.75)
	reg.Histogram("fed_gaps", "gaps", []float64{1, 2, 4},
		L("ch", "1"), L("app", "bfs"), L("kind", "rd")).Observe(1.5)

	var src bytes.Buffer
	if err := WriteJSON(&src, reg); err != nil {
		t.Fatal(err)
	}
	var first []byte
	for i := 0; i < 20; i++ {
		parsed, err := ParseRegistryJSON(bytes.NewReader(src.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := WriteJSON(&out, parsed); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = append([]byte(nil), out.Bytes()...)
			continue
		}
		if !bytes.Equal(out.Bytes(), first) {
			t.Fatalf("re-export %d diverged from first:\n%s\nvs\n%s", i, out.Bytes(), first)
		}
	}
}
