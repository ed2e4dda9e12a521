package report

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"smores/internal/floats"
)

// TestBenchDeterministicEnergy runs the bench matrix twice at small
// scale and demands bit-identical energy rows — the property the
// cross-host regression gate rests on.
func TestBenchDeterministicEnergy(t *testing.T) {
	cfg := BenchConfig{Accesses: 400, Seed: 9, Workers: 2}
	a, err := RunBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Schemes) != 5 || a.Apps == 0 {
		t.Fatalf("bench shape wrong: %d schemes, %d apps", len(a.Schemes), a.Apps)
	}
	for i := range a.Schemes {
		if a.Schemes[i].EnergyPJPerBit != b.Schemes[i].EnergyPJPerBit {
			t.Errorf("%s: energy not deterministic: %v vs %v",
				a.Schemes[i].Label, a.Schemes[i].EnergyPJPerBit, b.Schemes[i].EnergyPJPerBit)
		}
		if a.Schemes[i].EnergyPJPerBit <= 0 {
			t.Errorf("%s: no energy recorded", a.Schemes[i].Label)
		}
	}
	// The ladder the paper establishes must hold even at small scale:
	// every SMOREs scheme beats the baseline.
	for _, s := range a.Schemes[2:] {
		if s.SavingPct <= 0 {
			t.Errorf("%s: expected positive saving vs baseline, got %.2f%%", s.Label, s.SavingPct)
		}
	}
}

// TestBenchRoundTrip exercises the full gate loop: write a report,
// read it back, compare it against itself — 0 regressions.
func TestBenchRoundTrip(t *testing.T) {
	rep, err := RunBench(BenchConfig{Accesses: 300, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBench(f, rep); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBench(path)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := CompareBench(got, rep, 0.05, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Regressions) != 0 {
		t.Errorf("self-comparison regressed: %v", cmp.Regressions)
	}
}

// TestBenchHostFingerprint pins what makes two hosts comparable: the
// scheduler width (GOMAXPROCS) counts as well as the CPU count, and a
// fresh report records the width it ran with.
func TestBenchHostFingerprint(t *testing.T) {
	h := benchHost()
	if h.GOMAXPROCS != runtime.GOMAXPROCS(0) || h.CPUs != runtime.NumCPU() {
		t.Fatalf("host %+v: want GOMAXPROCS %d, CPUs %d", h, runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	a := BenchHost{Hostname: "a", OS: "linux", Arch: "amd64", CPUs: 4, GOMAXPROCS: 4}
	b := a
	b.GOMAXPROCS = 2
	if a.Fingerprint() == b.Fingerprint() {
		t.Errorf("fingerprint %q ignores GOMAXPROCS", a.Fingerprint())
	}
	b = a
	b.CPUs = 8
	if a.Fingerprint() == b.Fingerprint() {
		t.Errorf("fingerprint %q ignores the CPU count", a.Fingerprint())
	}
	var rt BenchHost
	raw, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &rt); err != nil || rt != a {
		t.Errorf("host does not round-trip through JSON: %s -> %+v (%v)", raw, rt, err)
	}
}

// TestCompareBenchGates pins the gate semantics: energy regressions
// always fire; perf regressions fire only on matching host fingerprints.
func TestCompareBenchGates(t *testing.T) {
	base := BenchReport{
		Version: BenchVersion, Accesses: 100, Seed: 1, Apps: 2, Workers: 1,
		Host: BenchHost{Hostname: "a", OS: "linux", Arch: "amd64", CPUs: 4},
		Schemes: []BenchScheme{
			{Label: "x", EnergyPJPerBit: 1.0, WallSeconds: 1.0, Allocs: 1000},
		},
	}
	cur := base
	cur.Schemes = []BenchScheme{
		{Label: "x", EnergyPJPerBit: 1.10, WallSeconds: 1.0, Allocs: 1000},
	}
	cmp, err := CompareBench(base, cur, 0.05, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Regressions) != 1 || !strings.Contains(cmp.Regressions[0], "energy") {
		t.Errorf("10%% energy rise at 5%% tolerance must regress: %v", cmp.Regressions)
	}

	// Same rise within tolerance: clean.
	cur.Schemes[0].EnergyPJPerBit = 1.04
	if cmp, _ = CompareBench(base, cur, 0.05, 0.30); len(cmp.Regressions) != 0 {
		t.Errorf("4%% energy rise at 5%% tolerance must pass: %v", cmp.Regressions)
	}

	// Wall-time blowup on the same host: regress.
	cur.Schemes[0] = BenchScheme{Label: "x", EnergyPJPerBit: 1.0, WallSeconds: 2.0, Allocs: 1000}
	if cmp, _ = CompareBench(base, cur, 0.05, 0.30); len(cmp.Regressions) != 1 {
		t.Errorf("2x wall time on same host must regress: %v", cmp.Regressions)
	}

	// Same blowup across hosts: skipped with a note.
	cur.Host.Hostname = "b"
	cmp, _ = CompareBench(base, cur, 0.05, 0.30)
	if len(cmp.Regressions) != 0 {
		t.Errorf("cross-host wall time must be skipped: %v", cmp.Regressions)
	}
	if len(cmp.Notes) == 0 {
		t.Error("cross-host comparison must note the skipped checks")
	}

	// Allocated bytes are gated like the allocation count: a size-class
	// jump grows bytes at a flat count.
	cur = base
	cur.Schemes = []BenchScheme{{Label: "x", EnergyPJPerBit: 1.0, WallSeconds: 1.0,
		Allocs: 1000, AllocBytes: 20 << 20}}
	base.Schemes = []BenchScheme{{Label: "x", EnergyPJPerBit: 1.0, WallSeconds: 1.0,
		Allocs: 1000, AllocBytes: 20 << 20}}
	if cmp, _ = CompareBench(base, cur, 0.05, 0.05); len(cmp.Regressions) != 0 {
		t.Errorf("equal alloc bytes must pass: %v", cmp.Regressions)
	}
	cur.Schemes[0].AllocBytes = 20<<20 + 20<<20*136/1000 // +13.6%
	cmp, _ = CompareBench(base, cur, 0.05, 0.05)
	if len(cmp.Regressions) != 1 || !strings.Contains(cmp.Regressions[0], "alloc bytes") {
		t.Errorf("+13.6%% alloc bytes at flat allocs must regress at 5%%: %v", cmp.Regressions)
	}
	cur.Host.GOMAXPROCS = 8
	if cmp, _ = CompareBench(base, cur, 0.05, 0.05); len(cmp.Regressions) != 0 {
		t.Errorf("alloc bytes must not be gated across GOMAXPROCS widths: %v", cmp.Regressions)
	}

	// Label drift is always a regression.
	cur = base
	cur.Schemes = []BenchScheme{{Label: "y", EnergyPJPerBit: 1.0}}
	if cmp, _ = CompareBench(base, cur, 0.05, 0.30); len(cmp.Regressions) != 1 {
		t.Errorf("label drift must regress: %v", cmp.Regressions)
	}

	// Scheme-count drift is a hard error.
	cur.Schemes = nil
	if _, err := CompareBench(base, cur, 0.05, 0.30); err == nil {
		t.Error("scheme count mismatch must error")
	}
}

func TestCompareMultiChannelGates(t *testing.T) {
	host := BenchHost{Hostname: "a", OS: "linux", Arch: "amd64", CPUs: 4}
	mk := func(m *MultiChannelBench) BenchReport {
		return BenchReport{
			Version: BenchVersion, Accesses: 100, Seed: 1, Apps: 2, Workers: 1, Host: host,
			Schemes:      []BenchScheme{{Label: "x", EnergyPJPerBit: 1.0}},
			MultiChannel: m,
		}
	}
	row := MultiChannelBench{Channels: 8, Apps: 42, Accesses: 100, Workers: 4,
		EnergyPJPerBit: 2.0, WallSeconds: 10.0, ShardsPerSec: 33.6}

	// Missing row on either side: note, never a regression.
	for _, tc := range []struct{ b, c *MultiChannelBench }{{nil, &row}, {&row, nil}} {
		cmp, err := CompareBench(mk(tc.b), mk(tc.c), 0.05, 0.30)
		if err != nil {
			t.Fatal(err)
		}
		if len(cmp.Regressions) != 0 {
			t.Errorf("missing multichannel row must not regress: %v", cmp.Regressions)
		}
		if len(cmp.Notes) == 0 {
			t.Error("missing multichannel row must be noted")
		}
	}

	// Energy is gated even same-spec same-host.
	hot := row
	hot.EnergyPJPerBit = 2.3
	cmp, _ := CompareBench(mk(&row), mk(&hot), 0.05, 0.30)
	if len(cmp.Regressions) != 1 || !strings.Contains(cmp.Regressions[0], "multichannel: energy") {
		t.Errorf("15%% multichannel energy rise must regress: %v", cmp.Regressions)
	}

	// Wall blowup same host: regress; different channel count: skipped.
	slow := row
	slow.WallSeconds = 20
	if cmp, _ = CompareBench(mk(&row), mk(&slow), 0.05, 0.30); len(cmp.Regressions) != 1 {
		t.Errorf("2x multichannel wall on same host must regress: %v", cmp.Regressions)
	}
	slow.Channels = 4
	if cmp, _ = CompareBench(mk(&row), mk(&slow), 0.05, 0.30); len(cmp.Regressions) != 0 {
		t.Errorf("different channel count must skip the gate: %v", cmp.Regressions)
	}
	// Different worker count: energy still gated, wall skipped.
	slow = row
	slow.WallSeconds = 20
	slow.Workers = 8
	if cmp, _ = CompareBench(mk(&row), mk(&slow), 0.05, 0.30); len(cmp.Regressions) != 0 {
		t.Errorf("different pool size must skip the wall gate: %v", cmp.Regressions)
	}
}

func TestRunMultiChannelBench(t *testing.T) {
	rep := BenchReport{Accesses: 150, Seed: 3}
	if err := RunMultiChannelBench(&rep, 1, 0); err == nil {
		t.Error("single channel must be rejected")
	}
	if err := RunMultiChannelBench(&rep, 2, 0); err != nil {
		t.Fatal(err)
	}
	m := rep.MultiChannel
	if m == nil || m.Channels != 2 || m.Apps == 0 || m.EnergyPJPerBit <= 0 {
		t.Fatalf("bad multichannel row: %+v", m)
	}
	if !strings.Contains(RenderBench(rep), "multichannel:") {
		t.Error("render must include the multichannel row")
	}
	// Deterministic energy at any pool size.
	seq := BenchReport{Accesses: 150, Seed: 3}
	if err := RunMultiChannelBench(&seq, 2, 1); err != nil {
		t.Fatal(err)
	}
	if !floats.Eq(seq.MultiChannel.EnergyPJPerBit, m.EnergyPJPerBit) {
		t.Errorf("multichannel energy depends on workers: %v vs %v",
			seq.MultiChannel.EnergyPJPerBit, m.EnergyPJPerBit)
	}
}

func TestCompareTraceStoreGates(t *testing.T) {
	host := BenchHost{Hostname: "a", OS: "linux", Arch: "amd64", CPUs: 4}
	mk := func(ts *TraceStoreBench) BenchReport {
		return BenchReport{
			Version: BenchVersion, Accesses: 100, Seed: 1, Apps: 2, Workers: 1, Host: host,
			Schemes:    []BenchScheme{{Label: "x", EnergyPJPerBit: 1.0}},
			TraceStore: ts,
		}
	}
	row := TraceStoreBench{App: "bfs", Accesses: 100, Shards: 2,
		EnergyPJPerBit: 0.5, CompressedBytes: 1000, BytesPerRecord: 10,
		PackWallSeconds: 1.0, ReplayWallSeconds: 2.0, RecordsPerSec: 50}

	// Missing row on either side: note, never a regression.
	for _, tc := range []struct{ b, c *TraceStoreBench }{{nil, &row}, {&row, nil}} {
		cmp, err := CompareBench(mk(tc.b), mk(tc.c), 0.05, 0.30)
		if err != nil {
			t.Fatal(err)
		}
		if len(cmp.Regressions) != 0 {
			t.Errorf("missing tracestore row must not regress: %v", cmp.Regressions)
		}
		if len(cmp.Notes) == 0 {
			t.Error("missing tracestore row must be noted")
		}
	}

	// Replay energy is gated unconditionally.
	hot := row
	hot.EnergyPJPerBit = 0.6
	cmp, _ := CompareBench(mk(&row), mk(&hot), 0.05, 0.30)
	if len(cmp.Regressions) != 1 || !strings.Contains(cmp.Regressions[0], "tracestore: replay energy") {
		t.Errorf("20%% replay-energy rise must regress: %v", cmp.Regressions)
	}

	// Compression regressions fire when the shard splits match and are
	// skipped (with a note) when they differ.
	fat := row
	fat.CompressedBytes = 1200
	if cmp, _ = CompareBench(mk(&row), mk(&fat), 0.05, 0.30); len(cmp.Regressions) != 1 {
		t.Errorf("20%% store growth must regress: %v", cmp.Regressions)
	}
	fat.Shards = 4
	if cmp, _ = CompareBench(mk(&row), mk(&fat), 0.05, 0.30); len(cmp.Regressions) != 0 {
		t.Errorf("different shard split must skip the footprint gate: %v", cmp.Regressions)
	}

	// Wall blowups: same host regresses, different traffic skips all.
	slow := row
	slow.ReplayWallSeconds = 4.0
	if cmp, _ = CompareBench(mk(&row), mk(&slow), 0.05, 0.30); len(cmp.Regressions) != 1 {
		t.Errorf("2x replay wall on same host must regress: %v", cmp.Regressions)
	}
	slow.App = "lulesh"
	if cmp, _ = CompareBench(mk(&row), mk(&slow), 0.05, 0.30); len(cmp.Regressions) != 0 {
		t.Errorf("different app must skip the tracestore gate: %v", cmp.Regressions)
	}
}

func TestRunTraceStoreBench(t *testing.T) {
	rep := BenchReport{Accesses: 300, Seed: 3}
	if err := RunTraceStoreBench(&rep, 2); err != nil {
		t.Fatal(err)
	}
	ts := rep.TraceStore
	if ts == nil || ts.App == "" || ts.EnergyPJPerBit <= 0 || ts.CompressedBytes <= 0 {
		t.Fatalf("bad tracestore row: %+v", ts)
	}
	if ts.Accesses != 300 || ts.Shards != 2 {
		t.Errorf("row not pinned to the requested spec: %+v", ts)
	}
	if !strings.Contains(RenderBench(rep), "tracestore:") {
		t.Error("render must include the tracestore row")
	}
	// Deterministic energy and footprint across repeat runs.
	again := BenchReport{Accesses: 300, Seed: 3}
	if err := RunTraceStoreBench(&again, 2); err != nil {
		t.Fatal(err)
	}
	if !floats.Eq(again.TraceStore.EnergyPJPerBit, ts.EnergyPJPerBit) ||
		again.TraceStore.CompressedBytes != ts.CompressedBytes {
		t.Errorf("tracestore row not deterministic: %+v vs %+v", again.TraceStore, ts)
	}
}

func TestParseTolerance(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
		ok   bool
	}{
		{"5%", 0.05, true},
		{"0.05", 0.05, true},
		{" 30% ", 0.30, true},
		{"0", 0, true},
		{"0%", 0, true},
		// Both edges of [0,1] are inclusive: "100%" disables a gate.
		{"100%", 1, true},
		{"1", 1, true},
		{"1.0", 1, true},
		{"100.0001%", 0, false},
		{"105%", 0, false},
		{"-1%", 0, false},
		{"-0.0001", 0, false},
		{"zap", 0, false},
	} {
		got, err := ParseTolerance(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseTolerance(%q) err = %v, ok want %v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseTolerance(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestReadBenchRejectsSchema guards the version check.
func TestReadBenchRejectsSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(BenchReport{Version: BenchVersion + 1}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBench(path); err == nil {
		t.Error("future schema version must be rejected")
	}
	if _, err := ReadBench(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file must be rejected")
	}
}

// TestRenderBench sanity-checks the table output.
func TestRenderBench(t *testing.T) {
	rep, err := RunBench(BenchConfig{Accesses: 200, Seed: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	text := RenderBench(rep)
	for _, want := range []string{"smores-bench", "pJ/bit", "saving", rep.Schemes[0].Label} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered bench missing %q:\n%s", want, text)
		}
	}
}
