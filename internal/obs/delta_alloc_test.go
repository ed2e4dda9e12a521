package obs_test

import (
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
