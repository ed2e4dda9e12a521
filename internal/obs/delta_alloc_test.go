package obs_test

import (
	"runtime"
	"testing"

	"smores/internal/core"
	"smores/internal/memctrl"
	"smores/internal/obs"
	"smores/internal/report"
	"smores/internal/workload"
)

// sessionRegistry fills a registry the way one telemetry session does:
// a single-app fleet run with the registry attached.
func sessionRegistry(t testing.TB) *obs.Registry {
	t.Helper()
	p, ok := workload.ByName("bfs")
	if !ok {
		t.Fatal("bfs profile missing")
	}
	reg := obs.NewRegistry()
	spec := report.RunSpec{
		Policy:   memctrl.SMOREs,
		Scheme:   core.Scheme{Specification: core.VariableCode, Detection: core.Exhaustive},
		Accesses: 3000, Seed: 1,
	}
	if _, err := report.RunFleetApps([]workload.Profile{p}, spec,
		report.FleetOptions{Workers: 1, Obs: reg}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// sessionProfile fills a profile the way one expected-mode telemetry
// session does: a single-app fleet run with the profile attached.
func sessionProfile(t testing.TB) *obs.Profile {
	t.Helper()
	p, ok := workload.ByName("bfs")
	if !ok {
		t.Fatal("bfs profile missing")
	}
	prof := obs.NewProfile()
	spec := report.RunSpec{
		Policy:   memctrl.SMOREs,
		Scheme:   core.Scheme{Specification: core.VariableCode, Detection: core.Exhaustive},
		Accesses: 3000, Seed: 1, Profile: prof,
	}
	if _, err := report.RunFleetApps([]workload.Profile{p}, spec,
		report.FleetOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	return prof
}

// allocSink keeps constructed values on the heap, as a session holds them.
var allocSink any

// bytesPerRun reports the bytes f allocates per call, averaged over runs.
func bytesPerRun(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestProfileStreamSteadyStateAllocs pins the sparse profile stream: the
// encoder and the follower start empty instead of shadowing the ~36k-cell
// grid, an idle Next allocates nothing, and a changed Next or a Full
// allocates only the cell slice it returns.
func TestProfileStreamSteadyStateAllocs(t *testing.T) {
	prof := sessionProfile(t)
	for _, c := range []struct {
		name  string
		build func()
	}{
		{"NewProfileDeltaEncoder", func() { allocSink = obs.NewProfileDeltaEncoder(prof) }},
		{"NewProfileStreamState", func() { allocSink = obs.NewProfileStreamState() }},
	} {
		if b := bytesPerRun(100, c.build); b >= 4096 {
			t.Errorf("%s allocates %.0f B, want under 4 KB", c.name, b)
		}
	}

	enc := obs.NewProfileDeltaEncoder(prof)
	first, _ := enc.Next()
	if len(first.Cells) == 0 {
		t.Fatal("session profile has no cells")
	}
	rx := obs.NewProfileStreamState()
	if !rx.Apply(first) || !obs.EqualCells(rx.Cells(), enc.Full().Cells) {
		t.Fatal("follower diverged from the encoder")
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, emitted := enc.Next(); emitted {
			t.Fatal("unchanged profile emitted")
		}
	}); n != 0 {
		t.Errorf("idle Next allocates %v objects, want 0", n)
	}
	c := first.Cells[0]
	if n := testing.AllocsPerRun(50, func() {
		prof.Add(c.Phase, c.Codec, c.Wire, c.Level, c.Trans, 1, 1)
		if snap, _ := enc.Next(); len(snap.Cells) != 1 {
			t.Fatalf("Next carried %d cells, want 1", len(snap.Cells))
		}
	}); n > 1 {
		t.Errorf("Next with changes allocates %v objects, want at most 1 (the changed cells)", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if len(enc.Full().Cells) != len(first.Cells) {
			t.Fatal("Full lost cells")
		}
	}); n > 1 {
		t.Errorf("Full allocates %v objects, want at most 1 (the cell slice)", n)
	}
}

// TestDeltaEncoderSteadyStateAllocs pins the series cache: once every
// series has been seen, an emission allocates nothing but the slice it
// returns, and an idle scan allocates nothing at all.
func TestDeltaEncoderSteadyStateAllocs(t *testing.T) {
	reg := sessionRegistry(t)
	probes := []*obs.Counter{
		reg.Counter("probe_a_total", "h"),
		reg.Counter("probe_b_total", "h", obs.L("app", "bfs")),
		reg.Counter("smores_probe_total", "h", obs.L("channel", "0")),
	}
	enc := obs.NewDeltaEncoder(reg)
	first, _ := enc.Next()
	if len(first.Points) < 50 {
		t.Fatalf("session registry flattened to only %d points", len(first.Points))
	}

	if n := testing.AllocsPerRun(50, func() {
		if _, emitted := enc.Next(); emitted {
			t.Fatal("unchanged registry emitted")
		}
	}); n != 0 {
		t.Errorf("idle Next allocates %v objects, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		for _, c := range probes {
			c.Inc()
		}
		if snap, _ := enc.Next(); len(snap.Points) != len(probes) {
			t.Fatalf("Next carried %d points, want %d", len(snap.Points), len(probes))
		}
	}); n != 1 {
		t.Errorf("Next with changes allocates %v objects, want 1 (the changed points)", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if len(enc.Full().Points) != len(first.Points) {
			t.Fatal("Full lost points")
		}
	}); n != 1 {
		t.Errorf("Full allocates %v objects, want 1 (the point slice)", n)
	}
}
