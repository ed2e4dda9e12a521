package obs

import (
	"math"
	"testing"
)

var tallyLevelE = [ProfileLevels]float64{0, 0.1 + 0.2, 1.7, 2.9}

// countSymbols opens a batch for owner on p, counts n symbols into one
// cell and closes the batch; it returns the tally it used.
func countSymbols(p *Profile, t *SymbolTally, owner any, ph Phase, wire, level int, tc TransClass, n int32) *SymbolTally {
	t = p.BeginTally(t, owner, tallyLevelE, 0.75)
	t.Slot(ph, ProfileCodecMTA)[wire][level][tc] += n
	p.EndTally(t, owner, int(n))
	return t
}

// TestTallyFoldMatchesEagerAdds checks that a drained count lands with
// the same energy bits and count as that many AddSymbol calls, in the
// postamble phase with the postamble energy.
func TestTallyFoldMatchesEagerAdds(t *testing.T) {
	p, eager := NewProfile(), NewProfile()
	owner := new(int)
	tl := countSymbols(p, nil, owner, PhaseMTAPayload, 3, 1, Trans1DV, 1000)
	countSymbols(p, tl, owner, PhasePostamble, 17, 1, Trans0DV, 7)
	for i := 0; i < 1000; i++ {
		eager.AddSymbol(PhaseMTAPayload, ProfileCodecMTA, 3, 1, Trans1DV, tallyLevelE[1])
	}
	for i := 0; i < 7; i++ {
		eager.AddSymbol(PhasePostamble, ProfileCodecMTA, 17, 1, Trans0DV, 0.75)
	}
	for _, c := range []struct {
		ph        Phase
		wire, lvl int
		tc        TransClass
	}{{PhaseMTAPayload, 3, 1, Trans1DV}, {PhasePostamble, 17, 1, Trans0DV}} {
		gotE, gotN := p.Cell(c.ph, ProfileCodecMTA, c.wire, c.lvl, c.tc)
		wantE, wantN := eager.Cell(c.ph, ProfileCodecMTA, c.wire, c.lvl, c.tc)
		if math.Float64bits(gotE) != math.Float64bits(wantE) || gotN != wantN {
			t.Errorf("%v cell: %v fJ × %d, eager %v fJ × %d", c.ph, gotE, gotN, wantE, wantN)
		}
	}
	if p.ntallies.Load() != 0 {
		t.Error("a read left the tally registered")
	}
}

// TestTallyStaleOwner checks the hand-off after a reader drains a
// writer's tally: the writer's own flush of the stale pointer is a
// no-op, and its next batch lands through a fresh registration.
func TestTallyStaleOwner(t *testing.T) {
	p := NewProfile()
	owner := new(int)
	tl := countSymbols(p, nil, owner, PhaseSparsePayload, 0, 2, TransSeam, 5)
	if n := p.TotalSymbols(); n != 5 {
		t.Fatalf("read saw %d symbols, want 5", n)
	}
	p.FlushTally(tl, owner) // already drained: must not fold twice
	if n := p.TotalSymbols(); n != 5 {
		t.Fatalf("stale flush changed the total to %d", n)
	}
	tl = countSymbols(p, tl, owner, PhaseSparsePayload, 0, 2, TransSeam, 4)
	p.FlushTally(tl, owner)
	if _, n := p.Cell(PhaseSparsePayload, ProfileCodecMTA, 0, 2, TransSeam); n != 9 {
		t.Fatalf("cell count %d after the second batch, want 9", n)
	}
	if p.ntallies.Load() != 0 {
		t.Error("flush left the tally registered")
	}
}

// TestTallyPendingBound checks that a writer past the pending bound
// drains itself without any read.
func TestTallyPendingBound(t *testing.T) {
	p := NewProfile()
	tl := p.BeginTally(nil, p, tallyLevelE, 0)
	tl.Slot(PhaseReplay, ProfileCodecMTA)[1][3][Trans2DV]++
	p.EndTally(tl, p, tallyMaxPending)
	if p.ntallies.Load() != 0 {
		t.Fatal("tally still registered past the pending bound")
	}
	if _, n := p.Cell(PhaseReplay, ProfileCodecMTA, 1, 3, Trans2DV); n != 1 {
		t.Fatalf("self-drain folded %d symbols, want 1", n)
	}
}

// TestTallyNilProfile checks the writer API is inert on a nil profile.
func TestTallyNilProfile(t *testing.T) {
	var p *Profile
	if tl := p.BeginTally(nil, p, tallyLevelE, 0); tl != nil {
		t.Fatal("nil profile handed out a tally")
	}
	p.EndTally(nil, p, 1)
	p.FlushTally(nil, p)
	var tl *SymbolTally
	if tl.Slot(PhaseLogic, 0) != nil {
		t.Fatal("nil tally returned a slot")
	}
}
