package gpu

import (
	"testing"

	"smores/internal/bus"
	"smores/internal/core"
	"smores/internal/fault"
	"smores/internal/memctrl"
	"smores/internal/rng"
)

// evictingLLC evicts dirty lines within a few thousand accesses over a
// 16K-sector working set, so the writeback path stays exercised.
var evictingLLC = LLCConfig{SizeBytes: 64 << 10, LineBytes: 128, SectorBytes: 32, Ways: 4}

// faultyDriver builds a driver over a SMOREs controller with exact data
// and the given fault hook, so reads come back with Replayed set.
func faultyDriver(t *testing.T, hook bus.BurstHook, llc bool, maxAccesses int64) (*Driver, *memctrl.Controller) {
	t.Helper()
	ctrl, err := memctrl.New(memctrl.Config{Policy: memctrl.SMOREs,
		Scheme: core.Scheme{Specification: core.VariableCode, Detection: core.Exhaustive},
		Bus:    bus.Config{ExactData: true}, Fault: hook})
	if err != nil {
		t.Fatal(err)
	}
	dc := DriverConfig{MSHRs: 16, MaxAccesses: maxAccesses}
	if llc {
		l := evictingLLC
		dc.LLC = &l
	}
	d, err := NewDriver(dc, ctrl, &randGen{r: rng.New(5), ws: 1 << 14, wfrac: 0.3, think: 3})
	if err != nil {
		t.Fatal(err)
	}
	return d, ctrl
}

// TestDriverSteadyStateAllocFree pins the pooled request path: once the
// driver's free list, the controller's queues and completion list, and
// the LLC's writeback scratch have grown to their working size, the
// lockstep loop allocates nothing per access — with the LLC off and on,
// a read/write mix, and EDC replays setting Replayed. The hook is a real
// fault.Injector, so its re-encode, corruption and decode are inside the
// measured span too.
func TestDriverSteadyStateAllocFree(t *testing.T) {
	for _, llc := range []bool{false, true} {
		in, err := fault.New(fault.Config{Model: fault.ModelUniform, Rate: 2e-3, EDC: true, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		d, ctrl := faultyDriver(t, in, llc, 0)
		for i := 0; i < 20000; i++ {
			d.advance(true)
		}
		before := d.res
		// AllocsPerRun truncates to whole allocations per run, so each run
		// spans many driver clocks (and accesses): one allocation anywhere
		// in the span fails the gate.
		allocs := testing.AllocsPerRun(20, func() {
			for i := 0; i < 500; i++ {
				d.advance(true)
			}
		})
		got := d.res
		if got.Accesses == before.Accesses || got.DRAMReads == before.DRAMReads ||
			got.DRAMWrites == before.DRAMWrites || got.ReplayedReads == before.ReplayedReads {
			t.Fatalf("llc=%v: measured span did no work: %+v -> %+v", llc, before, got)
		}
		if llc && d.llc.Stats().Writebacks == 0 {
			t.Fatalf("llc=%v: no writebacks exercised", llc)
		}
		if allocs != 0 {
			t.Errorf("llc=%v: %.0f allocations per 500 driver clocks in steady state (controller clock %d)",
				llc, allocs, ctrl.Clock())
		}
	}
}

// TestRecycledRequestsKeepReplayCounts checks that a recycled request
// carries nothing over from its previous use: with faults on, the run's
// ReplayedReads and clock count equal the values the allocate-per-access
// driver produced.
func TestRecycledRequestsKeepReplayCounts(t *testing.T) {
	for _, tc := range []struct {
		llc            bool
		replayed, clks int64
	}{
		{false, 2446, 63726},
		{true, 2279, 59537},
	} {
		in, err := fault.New(fault.Config{Model: fault.ModelUniform, Rate: 2e-3, EDC: true, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		d, ctrl := faultyDriver(t, in, tc.llc, 4000)
		res, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.ReplayedReads != tc.replayed || res.Clocks != tc.clks {
			t.Errorf("llc=%v: ReplayedReads %d, Clocks %d; want %d, %d",
				tc.llc, res.ReplayedReads, res.Clocks, tc.replayed, tc.clks)
		}
		if res.ReplayedReads > ctrl.Stats().Replays {
			t.Errorf("llc=%v: %d replayed reads exceed the controller's %d replays",
				tc.llc, res.ReplayedReads, ctrl.Stats().Replays)
		}
	}
}
