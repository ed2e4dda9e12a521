package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"smores/internal/floats"
)

// denseEncoderOracle is the profile delta encoder before the touched-cell
// bitmap: dense last-emitted shadows over every flat cell index, scanned
// in full by every next and full. ProfileDeltaEncoder must stay
// byte-identical to it.
type denseEncoderOracle struct {
	prof   *Profile
	seq    uint64
	lastFJ []float64
	lastN  []int64
}

func newDenseEncoderOracle(prof *Profile) *denseEncoderOracle {
	return &denseEncoderOracle{prof: prof,
		lastFJ: make([]float64, ProfileCells), lastN: make([]int64, ProfileCells)}
}

func (e *denseEncoderOracle) next() (ProfileDeltaSnapshot, bool) {
	e.prof.drain()
	var changed []ProfileDeltaCell
	for i := 0; i < ProfileCells; i++ {
		fj := e.prof.energy[i].Value()
		n := e.prof.count[i].Load()
		if floats.Eq(fj, e.lastFJ[i]) && n == e.lastN[i] {
			continue
		}
		e.lastFJ[i], e.lastN[i] = fj, n
		ph, codec, wire, level, tc := cellCoords(i)
		changed = append(changed, ProfileDeltaCell{
			Phase: ph, Codec: codec, Wire: wire, Level: level, Trans: tc, FJ: fj, Count: n,
		})
	}
	if len(changed) == 0 {
		return ProfileDeltaSnapshot{Seq: e.seq}, false
	}
	e.seq++
	return ProfileDeltaSnapshot{Seq: e.seq, Cells: changed}, true
}

func (e *denseEncoderOracle) full() ProfileDeltaSnapshot {
	snap := ProfileDeltaSnapshot{Seq: e.seq, Reset: true}
	for i := 0; i < ProfileCells; i++ {
		if floats.IsZero(e.lastFJ[i]) && e.lastN[i] == 0 {
			continue
		}
		ph, codec, wire, level, tc := cellCoords(i)
		snap.Cells = append(snap.Cells, ProfileDeltaCell{
			Phase: ph, Codec: codec, Wire: wire, Level: level, Trans: tc,
			FJ: e.lastFJ[i], Count: e.lastN[i],
		})
	}
	return snap
}

// denseStateOracle is the profile stream follower before the sparse
// cell slice: one dense array pair over every flat cell index.
type denseStateOracle struct {
	seq uint64
	fj  []float64
	n   []int64
}

func newDenseStateOracle() *denseStateOracle {
	return &denseStateOracle{fj: make([]float64, ProfileCells), n: make([]int64, ProfileCells)}
}

func (s *denseStateOracle) apply(snap ProfileDeltaSnapshot) bool {
	if snap.Reset {
		clear(s.fj)
		clear(s.n)
	} else if snap.Seq != s.seq+1 {
		return false
	}
	for _, c := range snap.Cells {
		if i := c.index(); i >= 0 {
			s.fj[i], s.n[i] = c.FJ, c.Count
		}
	}
	s.seq = snap.Seq
	return true
}

func (s *denseStateOracle) totalFJ() float64 { return denseKahan(s.fj) }

func (s *denseStateOracle) cells() []ProfileDeltaCell {
	var out []ProfileDeltaCell
	for i := range s.fj {
		if floats.IsZero(s.fj[i]) && s.n[i] == 0 {
			continue
		}
		ph, codec, wire, level, tc := cellCoords(i)
		out = append(out, ProfileDeltaCell{
			Phase: ph, Codec: codec, Wire: wire, Level: level, Trans: tc, FJ: s.fj[i], Count: s.n[i],
		})
	}
	return out
}

// denseKahan is the Kahan sum over every value, zeros included.
func denseKahan(vs []float64) float64 {
	var sum, comp float64
	for _, v := range vs {
		y := v - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// denseEnergies reads every cell's energy, as the dense readers did.
func denseEnergies(p *Profile) []float64 {
	p.drain()
	out := make([]float64, ProfileCells)
	for i := range out {
		out[i] = p.energy[i].Value()
	}
	return out
}

// denseSnapshot is Profile.Snapshot over every flat cell index.
func denseSnapshot(p *Profile) ProfileSnapshot {
	p.drain()
	var s ProfileSnapshot
	for i := 0; i < ProfileCells; i++ {
		fj, n := p.energy[i].Value(), p.count[i].Load()
		if floats.Eq(fj, 0) && n == 0 {
			continue
		}
		ph, codec, wire, level, tc := cellCoords(i)
		s.Cells = append(s.Cells, ProfileCell{Phase: ph, Codec: codec, Wire: wire,
			Level: level, Trans: tc, FJ: fj, Count: n})
		s.TotalFJ += fj
		s.Symbols += n
		s.PhaseFJ[ph] += fj
		s.CodecFJ[codec] += fj
		s.CodecCounts[codec] += n
	}
	return s
}

// sameBits reports bit identity, telling -0 from +0.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// mustJSON marshals v or fails the test.
func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// checkProfileReaders holds every sparse Profile reader bit-identical to
// its dense loop.
func checkProfileReaders(t testing.TB, stage string, p *Profile) {
	t.Helper()
	energies := denseEnergies(p)
	if got, want := p.TotalEnergy(), denseKahan(energies); !sameBits(got, want) {
		t.Fatalf("%s: TotalEnergy %v, dense %v", stage, got, want)
	}
	stride := ProfileCells / NumPhases
	for ph := Phase(0); ph < NumPhases; ph++ {
		want := denseKahan(energies[int(ph)*stride : int(ph+1)*stride])
		if got := p.PhaseEnergy(ph); !sameBits(got, want) {
			t.Fatalf("%s: PhaseEnergy(%v) %v, dense %v", stage, ph, got, want)
		}
	}
	want := denseSnapshot(p)
	if got := p.Snapshot(); !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
		t.Fatalf("%s: Snapshot diverged from the dense scan:\ngot  %+v\nwant %+v", stage, got, want)
	}
	if got := p.TotalSymbols(); got != want.Symbols {
		t.Fatalf("%s: TotalSymbols %d, dense %d", stage, got, want.Symbols)
	}
	var codecFJ [NumProfileCodecs]float64
	for i, e := range energies {
		_, c, _, _, _ := cellCoords(i)
		codecFJ[c] += e
	}
	for codec, want := range codecFJ {
		if got := p.CodecEnergy(codec); !sameBits(got, want) {
			t.Fatalf("%s: CodecEnergy(%d) %v, dense %v", stage, codec, got, want)
		}
	}
}

// checkStateOracle holds a sparse follower bit-identical to its dense
// oracle: sequence, cells, total and every probed cell.
func checkStateOracle(t testing.TB, stage string, s *ProfileStreamState, o *denseStateOracle, probe []int) {
	t.Helper()
	if s.Seq() != o.seq {
		t.Fatalf("%s: seq %d, oracle %d", stage, s.Seq(), o.seq)
	}
	if got, want := mustJSON(t, s.Cells()), mustJSON(t, o.cells()); !bytes.Equal(got, want) {
		t.Fatalf("%s: Cells diverged:\ngot  %s\nwant %s", stage, got, want)
	}
	if got, want := s.TotalFJ(), o.totalFJ(); !sameBits(got, want) {
		t.Fatalf("%s: TotalFJ %v, oracle %v", stage, got, want)
	}
	for _, i := range probe {
		fj, n := s.Cell(cellCoords(i))
		if !sameBits(fj, o.fj[i]) || n != o.n[i] {
			t.Fatalf("%s: Cell(%d) = (%v, %d), oracle (%v, %d)", stage, i, fj, n, o.fj[i], o.n[i])
		}
	}
}

// profileEdgeCells are flat indices at the ends of the grid and of
// bitmap words.
var profileEdgeCells = []int{0, 1, 62, 63, 64, 65, 127, 128, 4095, 4096,
	(profileWords-1)*64 - 1, (profileWords - 1) * 64, ProfileCells - 2, ProfileCells - 1}

// checkProfileStream drives one profile through an operation stream read
// from data — eager adds, aggregates, merges, symbol tallies, emissions,
// dropped emissions, late joins and hand-built snapshots — and holds the
// sparse encoder, followers and readers to their dense oracles at every
// emission. Each emission scans the dense grid several times, so the
// caller bounds len(data).
func checkProfileStream(t testing.TB, data []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var used []int
	cell := func() int {
		var i int
		switch b := next(); {
		case b < 64:
			i = profileEdgeCells[int(b)%len(profileEdgeCells)]
		case b < 160 && len(used) > 0:
			return used[int(b)%len(used)]
		default:
			i = (int(b)<<8 | int(next())) * 7 % ProfileCells
		}
		used = append(used, i)
		return i
	}
	// energy spans 48 binary orders of magnitude, so sums round and the
	// Kahan compensation carries real bits; 0 makes a count-only write.
	energy := func() float64 {
		m, e := next(), next()
		if m == 0 {
			return 0
		}
		return math.Ldexp(float64(m)+0.1, int(e%48)-24)
	}

	p := NewProfile()
	enc, or := NewProfileDeltaEncoder(p), newDenseEncoderOracle(p)
	rx, orx := NewProfileStreamState(), newDenseStateOracle()
	var joiner *ProfileStreamState
	var ojoiner *denseStateOracle
	free, ofree := NewProfileStreamState(), newDenseStateOracle()
	var tally *SymbolTally
	owner := new(int)
	levelE := [ProfileLevels]float64{0, 0.1, 0.7, 1.3}

	emit := func(stage string, deliver bool) {
		snap, emitted := enc.Next()
		want, wantEmitted := or.next()
		if got, exp := mustJSON(t, snap), mustJSON(t, want); emitted != wantEmitted || !bytes.Equal(got, exp) {
			t.Fatalf("%s: Next diverged from the dense oracle:\ngot  %v %s\nwant %v %s", stage, emitted, got, wantEmitted, exp)
		}
		full := enc.Full()
		if got, exp := mustJSON(t, full), mustJSON(t, or.full()); !bytes.Equal(got, exp) {
			t.Fatalf("%s: Full diverged from the dense oracle:\ngot  %s\nwant %s", stage, got, exp)
		}
		checkProfileReaders(t, stage, p)
		if !emitted || !deliver {
			return
		}
		for _, pair := range []struct {
			s *ProfileStreamState
			o *denseStateOracle
		}{{rx, orx}, {joiner, ojoiner}} {
			if pair.s == nil {
				continue
			}
			ok := pair.s.Apply(snap)
			if ok != pair.o.apply(snap) {
				t.Fatalf("%s: Apply(seq %d) = %v disagrees with the oracle", stage, snap.Seq, ok)
			}
			if !ok { // a dropped emission before: resync
				pair.s.Apply(full)
				pair.o.apply(full)
			}
			checkStateOracle(t, stage, pair.s, pair.o, used)
			if !EqualCells(pair.s.Cells(), full.Cells) {
				t.Fatalf("%s: follower diverged from Full", stage)
			}
		}
	}

	for round := 0; len(data) > 0; round++ {
		stage := "round " + strconv.Itoa(round)
		switch next() % 8 {
		case 0: // eager add
			ph, codec, wire, level, tc := cellCoords(cell())
			p.Add(ph, codec, wire, level, tc, energy(), int64(next()%3))
		case 1: // closed-form aggregate
			p.AddAggregate(Phase(next()%NumPhases), int(next()%NumProfileCodecs), energy(), int64(next()%3))
		case 2: // roll-up merge
			src := NewProfile()
			for k := next() % 4; k > 0; k-- {
				ph, codec, wire, level, tc := cellCoords(cell())
				src.Add(ph, codec, wire, level, tc, energy(), int64(next()%3))
			}
			p.Merge(src)
		case 3: // symbol tally batch
			tally = p.BeginTally(tally, owner, levelE, 0.3)
			ph, codec := Phase(next()%NumPhases), int(next()%NumProfileCodecs)
			wire, level, tc := int(next()%ProfileWires), int(next()%ProfileLevels), TransClass(next()%uint8(TallyClasses))
			k := int32(next()%5) + 1
			tally.Slot(ph, codec)[wire][TallyCell(level, tc)] += k
			p.EndTally(tally, owner, int(k))
		case 4:
			emit(stage, true)
		case 5: // an emission the followers never see
			emit(stage, false)
		case 6: // late join from Full
			joiner, ojoiner = NewProfileStreamState(), newDenseStateOracle()
			full := enc.Full()
			if !joiner.Apply(full) || !ojoiner.apply(full) {
				t.Fatalf("%s: Reset join rejected", stage)
			}
			checkStateOracle(t, stage, joiner, ojoiner, used)
		case 7: // a hand-built snapshot: any order, duplicates, signed
			// zeros, negative values and out-of-range coordinates
			snap := ProfileDeltaSnapshot{Seq: free.Seq() + 1, Reset: next()%4 == 0}
			if next()%8 == 0 {
				snap.Seq += 2
			}
			for k := next() % 6; k > 0; k-- {
				ph, codec, wire, level, tc := cellCoords(cell())
				c := ProfileDeltaCell{Phase: ph, Codec: codec, Wire: wire, Level: level, Trans: tc,
					FJ: energy(), Count: int64(next() % 3)}
				switch next() % 8 {
				case 0:
					c.FJ = math.Copysign(0, -1)
				case 1:
					c.FJ = -c.FJ
				case 2:
					c.Wire = profileWireDim + 1
				}
				snap.Cells = append(snap.Cells, c)
			}
			if ok := free.Apply(snap); ok != ofree.apply(snap) {
				t.Fatalf("%s: hand-built Apply = %v disagrees with the oracle", stage, ok)
			}
			checkStateOracle(t, stage, free, ofree, used)
		}
	}
	emit("final", true)
}

// TestProfileStreamMatchesOracle holds the sparse encoder, follower and
// Profile readers byte- and bit-identical to the dense ones over long
// pseudo-random operation streams.
func TestProfileStreamMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for run := 0; run < 6; run++ {
		data := make([]byte, 1500)
		rng.Read(data)
		checkProfileStream(t, data)
	}
}

// FuzzProfileStream is TestProfileStreamMatchesOracle over fuzzed
// operation streams.
func FuzzProfileStream(f *testing.F) {
	// Writes to cell 0, the last cell and both ends of bitmap words,
	// emitted, dropped, joined late and merged.
	f.Add([]byte{0, 0, 1, 1, 0, 0, 13, 5, 9, 2, 4, 0, 3, 2, 1, 0, 7, 200, 4, 6, 4})
	f.Add([]byte{0, 3, 9, 4, 1, 0, 4, 7, 30, 1, 4, 5, 0, 4, 1, 2, 4, 2, 3, 0, 10, 20, 1, 4, 6, 4, 3, 2, 1, 0, 3, 1, 2, 4})
	f.Add([]byte{2, 3, 0, 1, 1, 1, 11, 9, 2, 1, 12, 200, 1, 2, 4, 3, 6, 1, 3, 0, 2, 4, 7, 1, 4, 3, 5, 7, 1, 4, 1, 2, 4, 6, 5, 4, 4})
	f.Add([]byte{7, 0, 3, 0, 1, 1, 0, 0, 0, 13, 250, 1, 1, 7, 200, 1, 7, 9, 1, 3, 0, 5, 6, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		checkProfileStream(t, data)
	})
}

// TestKahanSkipMatchesDenseZeros pins the zero-run replay: from any
// (sum, comp) state, skip(n) lands on the bits of n dense zero steps.
func TestKahanSkipMatchesDenseZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20000; trial++ {
		sum := math.Ldexp(rng.Float64()+0.5, rng.Intn(80)-40)
		ulp := math.Nextafter(sum, math.Inf(1)) - sum
		comp := (rng.Float64() - 0.5) * ulp * float64(1+rng.Intn(3))
		if trial%7 == 0 {
			comp = ulp / 2 // a tie: the first zero step moves the sum
		}
		for _, n := range []int{0, 1, 2, 3, 17} {
			k := kahanSum{sum, comp}
			k.skip(n)
			want := kahanSum{sum, comp}
			for i := 0; i < n; i++ {
				want.add(0)
			}
			if !sameBits(k.sum, want.sum) || !sameBits(k.comp, want.comp) {
				t.Fatalf("skip(%d) from (%v, %v) = (%v, %v), dense (%v, %v)",
					n, sum, comp, k.sum, k.comp, want.sum, want.comp)
			}
		}
	}
}

// TestProfileDeltaRoundTrip is the profile-streaming correctness gate:
// at every emission point, a receiver that applied the delta sequence
// holds exactly the encoder's full cell state — and both agree with a
// direct Profile.Snapshot at the same instant.
func TestProfileDeltaRoundTrip(t *testing.T) {
	p := NewProfile()
	enc := NewProfileDeltaEncoder(p)
	rx := NewProfileStreamState()

	check := func(stage string) {
		t.Helper()
		snap, emitted := enc.Next()
		if !emitted {
			t.Fatalf("%s: expected changes to emit", stage)
		}
		if !rx.Apply(snap) {
			t.Fatalf("%s: apply rejected seq %d (held %d)", stage, snap.Seq, rx.Seq())
		}
		if !EqualCells(rx.Cells(), enc.Full().Cells) {
			t.Fatalf("%s: reconstruction diverged from encoder state", stage)
		}
		if !EqualCells(rx.Cells(), ProfileDeltaCells(p.Snapshot())) {
			t.Fatalf("%s: reconstruction diverged from profile snapshot", stage)
		}
	}

	p.AddSymbol(PhaseMTAPayload, ProfileCodecMTA, 0, 1, Trans1DV, 100)
	p.AddSymbol(PhaseDBIWire, ProfileCodecMTA, 8, 3, Trans3DV, 45.5)
	check("initial")

	// Unchanged profile: nothing emitted, seq stays put.
	if snap, emitted := enc.Next(); emitted || len(snap.Cells) != 0 {
		t.Fatalf("no-change scan emitted %+v", snap)
	}

	p.Add(PhaseMTAPayload, ProfileCodecMTA, 0, 1, Trans1DV, 0.1+0.2, 2) // float dust
	check("cell grows")

	p.AddAggregate(PhaseLogic, ProfileCodecPAM4, 12.25, 64)
	check("aggregate cell appears")

	// Count-only change (Add with fj=0) must still stream.
	p.Add(PhaseReplay, ProfileCodecIndex(4), 3, 2, Trans2DV, 0, 5)
	check("count-only change")

	if !floats.Eq(rx.TotalFJ(), p.TotalEnergy()) {
		t.Fatalf("reconstructed total %v != profile total %v", rx.TotalFJ(), p.TotalEnergy())
	}

	// The wire format survives JSON, including inside a StreamLine.
	full := enc.Full()
	raw, err := json.Marshal(StreamLine{Profile: &full})
	if err != nil {
		t.Fatal(err)
	}
	var line StreamLine
	if err := json.Unmarshal(raw, &line); err != nil {
		t.Fatal(err)
	}
	if line.Profile == nil {
		t.Fatal("profile field lost in JSON round trip")
	}
	rx2 := NewProfileStreamState()
	if !rx2.Apply(*line.Profile) {
		t.Fatal("reset snapshot must always apply")
	}
	if !EqualCells(rx2.Cells(), full.Cells) {
		t.Fatal("JSON round-trip diverged")
	}
}

// TestProfileDeltaOnlyChangedCells pins the compression property: an
// emission carries exactly the touched cells.
func TestProfileDeltaOnlyChangedCells(t *testing.T) {
	p := NewProfile()
	p.AddSymbol(PhaseMTAPayload, ProfileCodecMTA, 0, 1, Trans1DV, 10)
	p.AddSymbol(PhaseSparsePayload, ProfileCodecIndex(3), 5, 0, Trans0DV, 20)
	enc := NewProfileDeltaEncoder(p)
	if snap, ok := enc.Next(); !ok || len(snap.Cells) != 2 {
		t.Fatalf("first scan must carry both cells: %+v", snap)
	}
	p.AddSymbol(PhaseMTAPayload, ProfileCodecMTA, 0, 1, Trans1DV, 10)
	snap, ok := enc.Next()
	if !ok || len(snap.Cells) != 1 {
		t.Fatalf("second scan must carry only the touched cell: %+v", snap)
	}
	c := snap.Cells[0]
	if c.Phase != PhaseMTAPayload || c.Wire != 0 || c.Level != 1 || c.Trans != Trans1DV {
		t.Fatalf("wrong cell streamed: %+v", c)
	}
	if !floats.Eq(c.FJ, 20) || c.Count != 2 {
		t.Fatalf("cell carries absolute values: got (%v, %d), want (20, 2)", c.FJ, c.Count)
	}
}

// TestProfileStreamGapDetection: a receiver that missed an emission
// refuses the out-of-order snapshot and accepts a Reset resync.
func TestProfileStreamGapDetection(t *testing.T) {
	p := NewProfile()
	enc := NewProfileDeltaEncoder(p)
	rx := NewProfileStreamState()

	p.AddSymbol(PhaseMTAPayload, ProfileCodecMTA, 0, 1, Trans1DV, 1)
	s1, _ := enc.Next()
	if !rx.Apply(s1) {
		t.Fatal("seq 1 must apply")
	}
	p.AddSymbol(PhaseMTAPayload, ProfileCodecMTA, 0, 1, Trans1DV, 1)
	enc.Next() // dropped on the floor
	p.AddSymbol(PhaseMTAPayload, ProfileCodecMTA, 0, 1, Trans1DV, 1)
	s3, _ := enc.Next()
	if rx.Apply(s3) {
		t.Fatal("gapped snapshot must be rejected")
	}
	if !rx.Apply(enc.Full()) {
		t.Fatal("resync must apply")
	}
	if fj, n := rx.Cell(PhaseMTAPayload, ProfileCodecMTA, 0, 1, Trans1DV); !floats.Eq(fj, 3) || n != 3 {
		t.Fatalf("post-resync cell = (%v, %d), want (3, 3)", fj, n)
	}
	p.AddSymbol(PhaseMTAPayload, ProfileCodecMTA, 0, 1, Trans1DV, 1)
	s4, _ := enc.Next()
	if !rx.Apply(s4) {
		t.Fatal("post-resync delta must apply")
	}
}

// TestProfileStreamResetClears: a Reset snapshot replaces held state
// wholesale, so cells absent from it vanish.
func TestProfileStreamResetClears(t *testing.T) {
	rx := NewProfileStreamState()
	rx.Apply(ProfileDeltaSnapshot{Seq: 3, Reset: true, Cells: []ProfileDeltaCell{
		{Phase: PhaseLogic, Codec: ProfileCodecPAM4, Wire: WireAgg, Level: LevelMix, Trans: TransMix, FJ: 9, Count: 1},
	}})
	if len(rx.Cells()) != 1 {
		t.Fatal("seed state missing")
	}
	// Empty reset (a session that never burned energy) clears everything.
	if !rx.Apply(ProfileDeltaSnapshot{Seq: 0, Reset: true}) {
		t.Fatal("empty reset must apply")
	}
	if got := rx.Cells(); len(got) != 0 {
		t.Fatalf("reset did not clear state: %+v", got)
	}
	if rx.Seq() != 0 {
		t.Fatalf("reset must adopt the snapshot's seq, got %d", rx.Seq())
	}
}

func TestCellCoordsInvertsCellIndex(t *testing.T) {
	for i := 0; i < ProfileCells; i++ {
		ph, codec, wire, level, tc := cellCoords(i)
		if got := cellIndex(ph, codec, wire, level, tc); got != i {
			t.Fatalf("cellCoords(%d) = (%v,%d,%d,%d,%v) round-trips to %d",
				i, ph, codec, wire, level, tc, got)
		}
	}
}

func TestEqualCells(t *testing.T) {
	a := []ProfileDeltaCell{{Phase: PhaseLogic, Codec: 1, Wire: 2, Level: 3, Trans: Trans1DV, FJ: 1.5, Count: 2}}
	if !EqualCells(a, append([]ProfileDeltaCell(nil), a...)) {
		t.Fatal("identical sets must compare equal")
	}
	b := append([]ProfileDeltaCell(nil), a...)
	b[0].FJ = 1.5000001
	if EqualCells(a, b) {
		t.Fatal("energy mismatch must compare unequal")
	}
	b = append([]ProfileDeltaCell(nil), a...)
	b[0].Count = 3
	if EqualCells(a, b) {
		t.Fatal("count mismatch must compare unequal")
	}
	b = append([]ProfileDeltaCell(nil), a...)
	b[0].Wire = 4
	if EqualCells(a, b) {
		t.Fatal("coordinate mismatch must compare unequal")
	}
	if EqualCells(a, nil) {
		t.Fatal("length mismatch must compare unequal")
	}
	if !EqualCells(nil, nil) {
		t.Fatal("two empty sets are equal")
	}
}

func TestProfileDeltaNilSafe(t *testing.T) {
	var enc *ProfileDeltaEncoder
	if _, emitted := enc.Next(); emitted {
		t.Fatal("nil encoder emitted")
	}
	if enc.Seq() != 0 || len(enc.Full().Cells) != 0 || !enc.Full().Reset {
		t.Fatal("nil encoder state leak")
	}
	// Encoder over a nil profile is constructible and inert.
	encNilProf := NewProfileDeltaEncoder(nil)
	if _, emitted := encNilProf.Next(); emitted {
		t.Fatal("encoder over nil profile emitted")
	}
	var rx *ProfileStreamState
	if rx.Apply(ProfileDeltaSnapshot{}) {
		t.Fatal("nil state applied")
	}
	if rx.Cells() != nil || rx.Seq() != 0 || !floats.IsZero(rx.TotalFJ()) {
		t.Fatal("nil state not inert")
	}
	if fj, n := rx.Cell(PhaseLogic, 0, 0, 0, TransMix); !floats.IsZero(fj) || n != 0 {
		t.Fatal("nil state has cells")
	}
	// Out-of-range cells in a snapshot are dropped, not applied.
	rx2 := NewProfileStreamState()
	rx2.Apply(ProfileDeltaSnapshot{Seq: 1, Cells: []ProfileDeltaCell{
		{Phase: NumPhases + 1, Codec: 0, Wire: 0, Level: 0, Trans: 0, FJ: 5},
	}})
	if len(rx2.Cells()) != 0 {
		t.Fatal("out-of-range cell applied")
	}
}
