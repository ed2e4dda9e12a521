package report

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"smores/internal/fault"
	"smores/internal/obs"
	"smores/internal/workload"
)

// profileCellsSHA256 is the digest TestProfileCellsPinned expects. It
// was computed on the commit before the exact-mode profiler moved from
// per-symbol atomic adds to channel-local symbol tallies, so it pins the
// tallied attribution to the eager one bit for bit.
const profileCellsSHA256 = "a118ce91efa2409d5e12cec1e06f6660372686d0063e41096b4201b5ee1a4330"

// hashProfileCells feeds every non-empty cell of p into h: coordinates,
// the energy's IEEE-754 bits and the symbol count, in snapshot order.
func hashProfileCells(h []byte, p *obs.Profile) []byte {
	for _, c := range p.Snapshot().Cells {
		h = binary.LittleEndian.AppendUint32(h, uint32(c.Phase))
		h = binary.LittleEndian.AppendUint32(h, uint32(c.Codec))
		h = binary.LittleEndian.AppendUint32(h, uint32(c.Wire))
		h = binary.LittleEndian.AppendUint32(h, uint32(c.Level))
		h = binary.LittleEndian.AppendUint32(h, uint32(c.Trans))
		h = binary.LittleEndian.AppendUint64(h, math.Float64bits(c.FJ))
		h = binary.LittleEndian.AppendUint64(h, uint64(c.Count))
	}
	return h
}

// TestProfileCellsPinned holds the exact-mode energy profile bit for
// bit: 3 apps × 5 policies × 400 accesses with exact data, plus one
// EDC-fault run so the replay phase is covered, each into a fresh
// profile. Every cell's coordinates, energy bits and count enter the
// digest. The perfbench output digests do not cover profile cells; this
// does.
func TestProfileCellsPinned(t *testing.T) {
	var buf []byte
	run := func(app string, spec RunSpec) *obs.Profile {
		t.Helper()
		p, ok := workload.ByName(app)
		if !ok {
			t.Fatalf("unknown app %q", app)
		}
		prof := obs.NewProfile()
		spec.Profile = prof
		spec.ExactData = true
		if _, err := RunApp(p, spec); err != nil {
			t.Fatal(err)
		}
		buf = hashProfileCells(buf, prof)
		return prof
	}
	for _, app := range []string{"bfs", "lulesh", "xsbench"} {
		for _, spec := range PolicySpecs(400, 5, false) {
			run(app, spec)
		}
	}
	faulty := PolicySpecs(400, 5, false)[2]
	faulty.Fault = &fault.Config{Model: fault.ModelUniform, Rate: 2e-3, EDC: true, Seed: 17}
	if prof := run("bfs", faulty); prof.PhaseEnergy(obs.PhaseReplay) <= 0 {
		t.Fatal("the fault run attributed no replay energy")
	}

	sum := sha256.Sum256(buf)
	if got := hex.EncodeToString(sum[:]); got != profileCellsSHA256 {
		t.Errorf("profile cells digest %s, want %s", got, profileCellsSHA256)
	}
}
