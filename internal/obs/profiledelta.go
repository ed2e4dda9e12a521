package obs

import "smores/internal/floats"

// Delta-compressed profile streaming: the energy-attribution analogue of
// delta.go. A ProfileDeltaEncoder watches one Profile and, on each call
// to Next, emits only the cells whose energy or symbol count changed
// since the previous emission — so a stream follower can reconstruct the
// exact savings waterfall of a live session without scraping the full
// ~36k-cell grid every tick. The reset/resync/final discipline, dense
// sequence numbers, and absolute-value (never numeric-difference)
// payloads mirror DeltaEncoder exactly, so the session stream can
// interleave both snapshot kinds under one contract.

// ProfileDeltaCell is one changed attribution cell: coordinates plus the
// absolute accumulated energy (fJ) and symbol count at emission time.
type ProfileDeltaCell struct {
	Phase Phase      `json:"ph"`
	Codec int        `json:"c"`
	Wire  int        `json:"w"`
	Level int        `json:"l"`
	Trans TransClass `json:"t"`
	FJ    float64    `json:"fj"`
	Count int64      `json:"n,omitempty"`
}

// sameCoords reports whether two cells address the same grid position.
func (c ProfileDeltaCell) sameCoords(o ProfileDeltaCell) bool {
	return c.Phase == o.Phase && c.Codec == o.Codec &&
		c.Wire == o.Wire && c.Level == o.Level && c.Trans == o.Trans
}

// index flattens the cell's coordinates (-1 when out of range).
func (c ProfileDeltaCell) index() int {
	return cellIndex(c.Phase, c.Codec, c.Wire, c.Level, c.Trans)
}

// cellCoords inverts cellIndex: the (phase, codec, wire, level, trans)
// coordinates of flat cell index i.
func cellCoords(i int) (ph Phase, codec, wire, level int, tc TransClass) {
	tc = TransClass(i % NumTransClasses)
	i /= NumTransClasses
	level = i % profileLevelDim
	i /= profileLevelDim
	wire = i % profileWireDim
	i /= profileWireDim
	codec = i % NumProfileCodecs
	i /= NumProfileCodecs
	ph = Phase(i)
	return
}

// ProfileDeltaSnapshot is one profile-stream emission: the cells that
// changed since the previous emission (or the complete non-empty grid
// when Reset is set, the join/resync form). The sequence discipline is
// DeltaSnapshot's: dense Seq, Reset replaces wholesale, Final marks the
// last emission of a completed session.
type ProfileDeltaSnapshot struct {
	Seq     uint64             `json:"seq"`
	Session string             `json:"session,omitempty"`
	Reset   bool               `json:"reset,omitempty"`
	Final   bool               `json:"final,omitempty"`
	Cells   []ProfileDeltaCell `json:"cells"`
}

// ProfileDeltaEncoder tracks the last-emitted value of every cell of one
// Profile. Not safe for concurrent use — one goroutine (the session
// sampler) owns it; the profile itself may be written concurrently, as
// emissions read its cells atomically.
type ProfileDeltaEncoder struct {
	prof *Profile
	seq  uint64
	// Dense last-emitted shadows, indexed by flat cell index. ~850 KB
	// per encoder; released when the owning session finishes.
	lastFJ []float64
	lastN  []int64
}

// NewProfileDeltaEncoder builds an encoder over prof with empty prior
// state, so the first Next emits every non-empty cell. A nil prof yields
// an encoder that never emits.
func NewProfileDeltaEncoder(prof *Profile) *ProfileDeltaEncoder {
	return &ProfileDeltaEncoder{
		prof:   prof,
		lastFJ: make([]float64, ProfileCells),
		lastN:  make([]int64, ProfileCells),
	}
}

// Seq returns the sequence number of the last emission (0 before any).
func (e *ProfileDeltaEncoder) Seq() uint64 {
	if e == nil {
		return 0
	}
	return e.seq
}

// Next scans the profile and returns the snapshot of changed cells.
// Emitted reports whether anything changed; when false the snapshot is
// empty and the sequence number does not advance. Cells only ever grow,
// so a change is strictly new energy or new symbols.
func (e *ProfileDeltaEncoder) Next() (snap ProfileDeltaSnapshot, emitted bool) {
	if e == nil || e.prof == nil {
		return ProfileDeltaSnapshot{}, false
	}
	e.prof.drain()
	var changed []ProfileDeltaCell
	for i := 0; i < ProfileCells; i++ {
		fj := e.prof.energy[i].Value()
		n := e.prof.count[i].Load()
		if floats.Eq(fj, e.lastFJ[i]) && n == e.lastN[i] {
			continue
		}
		e.lastFJ[i] = fj
		e.lastN[i] = n
		ph, codec, wire, level, tc := cellCoords(i)
		changed = append(changed, ProfileDeltaCell{
			Phase: ph, Codec: codec, Wire: wire, Level: level, Trans: tc,
			FJ: fj, Count: n,
		})
	}
	if len(changed) == 0 {
		return ProfileDeltaSnapshot{Seq: e.seq}, false
	}
	e.seq++
	return ProfileDeltaSnapshot{Seq: e.seq, Cells: changed}, true
}

// Full returns the complete last-emitted state as a Reset snapshot
// carrying the current sequence number: a receiver that applies it holds
// exactly the state after emission Seq and may continue with Seq+1.
func (e *ProfileDeltaEncoder) Full() ProfileDeltaSnapshot {
	if e == nil {
		return ProfileDeltaSnapshot{Reset: true}
	}
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

// ProfileStreamState reconstructs profile state on the receiving end of
// a profile delta stream by overwrite-merging snapshots, mirroring
// StreamState's sequence discipline.
type ProfileStreamState struct {
	seq uint64
	fj  []float64
	n   []int64
}

// NewProfileStreamState builds an empty reconstruction.
func NewProfileStreamState() *ProfileStreamState {
	return &ProfileStreamState{
		fj: make([]float64, ProfileCells),
		n:  make([]int64, ProfileCells),
	}
}

// Apply folds one snapshot into the state. Reset snapshots replace the
// state wholesale. Returns false (without applying) when a non-reset
// snapshot does not follow the held sequence number — the caller lost
// snapshots and must request a resync.
func (s *ProfileStreamState) Apply(snap ProfileDeltaSnapshot) bool {
	if s == nil {
		return false
	}
	if snap.Reset {
		for i := range s.fj {
			s.fj[i] = 0
			s.n[i] = 0
		}
	} else if snap.Seq != s.seq+1 {
		return false
	}
	for _, c := range snap.Cells {
		i := c.index()
		if i < 0 {
			continue
		}
		s.fj[i] = c.FJ
		s.n[i] = c.Count
	}
	s.seq = snap.Seq
	return true
}

// Seq returns the sequence number of the last applied snapshot.
func (s *ProfileStreamState) Seq() uint64 {
	if s == nil {
		return 0
	}
	return s.seq
}

// Cell returns one reconstructed cell's energy and symbol count.
func (s *ProfileStreamState) Cell(ph Phase, codec, wire, level int, tc TransClass) (fj float64, n int64) {
	if s == nil {
		return 0, 0
	}
	i := cellIndex(ph, codec, wire, level, tc)
	if i < 0 {
		return 0, 0
	}
	return s.fj[i], s.n[i]
}

// TotalFJ sums the reconstructed cells (Kahan-compensated, matching
// Profile.TotalEnergy's summation order over flat cell indices).
func (s *ProfileStreamState) TotalFJ() float64 {
	if s == nil {
		return 0
	}
	var sum, comp float64
	for i := range s.fj {
		y := s.fj[i] - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Cells returns the reconstructed non-empty cells in flat cell-index
// order — the same order ProfileSnapshot.Cells and Full use, so the
// result feeds EqualCells directly.
func (s *ProfileStreamState) Cells() []ProfileDeltaCell {
	if s == nil {
		return nil
	}
	var out []ProfileDeltaCell
	for i := range s.fj {
		if floats.IsZero(s.fj[i]) && s.n[i] == 0 {
			continue
		}
		ph, codec, wire, level, tc := cellCoords(i)
		out = append(out, ProfileDeltaCell{
			Phase: ph, Codec: codec, Wire: wire, Level: level, Trans: tc,
			FJ: s.fj[i], Count: s.n[i],
		})
	}
	return out
}

// ProfileDeltaCells converts a ProfileSnapshot's cells to the stream
// cell form. ProfileSnapshot.Cells is already in flat cell-index order,
// so the result compares against ProfileStreamState.Cells and Full with
// EqualCells.
func ProfileDeltaCells(s ProfileSnapshot) []ProfileDeltaCell {
	if len(s.Cells) == 0 {
		return nil
	}
	out := make([]ProfileDeltaCell, len(s.Cells))
	for i, c := range s.Cells {
		out[i] = ProfileDeltaCell{
			Phase: c.Phase, Codec: c.Codec, Wire: c.Wire,
			Level: c.Level, Trans: c.Trans, FJ: c.FJ, Count: c.Count,
		}
	}
	return out
}

// EqualCells reports whether two cell sets are identical: same
// coordinates in the same order, bit-identical energies, equal counts.
// Both sides must be in flat cell-index order (Cells, Full, and
// ProfileDeltaCells all return that order).
func EqualCells(a, b []ProfileDeltaCell) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].sameCoords(b[i]) || !floats.Eq(a[i].FJ, b[i].FJ) || a[i].Count != b[i].Count {
			return false
		}
	}
	return true
}

// StreamLine is the wire form of one /sessions/{id}/stream NDJSON line
// on the receiving side. Counter snapshots serialize flat (back-compat
// with the PR-6 stream); profile snapshots ride in the "profile" field.
// Exactly one of the two is meaningful per line: Profile != nil means a
// profile snapshot, otherwise the embedded DeltaSnapshot is one.
type StreamLine struct {
	DeltaSnapshot
	Profile *ProfileDeltaSnapshot `json:"profile,omitempty"`
}
