package obs

import (
	"cmp"
	"slices"

	"smores/internal/floats"
)

// Delta-compressed profile streaming: the energy-attribution analogue of
// delta.go. A ProfileDeltaEncoder watches one Profile and, on each call
// to Next, emits only the cells whose energy or symbol count changed
// since the previous emission — so a stream follower can reconstruct the
// exact savings waterfall of a live session without scraping the full
// ~36k-cell grid every tick. Both ends are sparse: the encoder walks the
// profile's touched-cell bitmap and holds only the cells it emitted, and
// the follower holds only the cells it applied. The reset/resync/final
// discipline, dense sequence numbers, and absolute-value (never
// numeric-difference) payloads mirror DeltaEncoder exactly, so the
// session stream can interleave both snapshot kinds under one contract.

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
//
// The encoder holds only the cells it has emitted, in flat cell-index
// order. Next walks the profile's touched cells in the same order, so a
// held cell is always the next one the walk meets; a cell it does not
// hold has never been emitted and counts as (0, 0).
type ProfileDeltaEncoder struct {
	prof *Profile
	seq  uint64
	last []ProfileDeltaCell // emitted cells, flat order, last values
	buf  []ProfileDeltaCell // scratch: the changed cells of one Next
}

// NewProfileDeltaEncoder builds an encoder over prof with empty prior
// state, so the first Next emits every non-empty cell. A nil prof yields
// an encoder that never emits.
func NewProfileDeltaEncoder(prof *Profile) *ProfileDeltaEncoder {
	return &ProfileDeltaEncoder{prof: prof}
}

// Seq returns the sequence number of the last emission (0 before any).
func (e *ProfileDeltaEncoder) Seq() uint64 {
	if e == nil {
		return 0
	}
	return e.seq
}

// Next walks the profile's touched cells and returns the snapshot of
// changed cells, in flat cell-index order. Emitted reports whether
// anything changed; when false the snapshot is empty and the sequence
// number does not advance. Cells only ever grow, so a change is strictly
// new energy or new symbols.
func (e *ProfileDeltaEncoder) Next() (snap ProfileDeltaSnapshot, emitted bool) {
	if e == nil || e.prof == nil {
		return ProfileDeltaSnapshot{}, false
	}
	p := e.prof
	p.drain()
	e.buf = e.buf[:0]
	// held is the position in e.last of the next held cell the walk can
	// meet; a cell emitted for the first time is inserted there.
	held := 0
	for i := p.nextTouched(0); i < ProfileCells; i = p.nextTouched(i + 1) {
		fj, n := p.energy[i].Value(), p.count[i].Load()
		if held < len(e.last) && e.last[held].index() == i {
			c := &e.last[held]
			held++
			if floats.Eq(fj, c.FJ) && n == c.Count {
				continue
			}
			c.FJ, c.Count = fj, n
			e.buf = append(e.buf, *c)
			continue
		}
		if floats.Eq(fj, 0) && n == 0 {
			continue
		}
		ph, codec, wire, level, tc := cellCoords(i)
		c := ProfileDeltaCell{Phase: ph, Codec: codec, Wire: wire, Level: level, Trans: tc, FJ: fj, Count: n}
		e.last = slices.Insert(e.last, held, c)
		held++
		e.buf = append(e.buf, c)
	}
	if len(e.buf) == 0 {
		return ProfileDeltaSnapshot{Seq: e.seq}, false
	}
	e.seq++
	return ProfileDeltaSnapshot{Seq: e.seq, Cells: slices.Clone(e.buf)}, true
}

// Full returns the complete last-emitted state as a Reset snapshot
// carrying the current sequence number: a receiver that applies it holds
// exactly the state after emission Seq and may continue with Seq+1.
func (e *ProfileDeltaEncoder) Full() ProfileDeltaSnapshot {
	if e == nil {
		return ProfileDeltaSnapshot{Reset: true}
	}
	snap := ProfileDeltaSnapshot{Seq: e.seq, Reset: true}
	if len(e.last) > 0 {
		snap.Cells = slices.Clone(e.last)
	}
	return snap
}

// ProfileStreamState reconstructs profile state on the receiving end of
// a profile delta stream by overwrite-merging snapshots, mirroring
// StreamState's sequence discipline. It holds the applied cells in flat
// cell-index order; every other cell reads as (0, 0).
type ProfileStreamState struct {
	seq   uint64
	cells []ProfileDeltaCell
}

// NewProfileStreamState builds an empty reconstruction.
func NewProfileStreamState() *ProfileStreamState {
	return &ProfileStreamState{}
}

// find returns the position of flat cell index i in s.cells, or where it
// would be inserted, and whether it is held.
func (s *ProfileStreamState) find(i int) (int, bool) {
	return slices.BinarySearchFunc(s.cells, i, func(c ProfileDeltaCell, i int) int {
		return cmp.Compare(c.index(), i)
	})
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
		s.cells = s.cells[:0]
	} else if snap.Seq != s.seq+1 {
		return false
	}
	for _, c := range snap.Cells {
		i := c.index()
		if i < 0 {
			continue
		}
		if k, held := s.find(i); held {
			s.cells[k].FJ, s.cells[k].Count = c.FJ, c.Count
		} else {
			s.cells = slices.Insert(s.cells, k, c)
		}
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
	if k, held := s.find(i); held {
		return s.cells[k].FJ, s.cells[k].Count
	}
	return 0, 0
}

// TotalFJ sums the reconstructed cells with Profile.TotalEnergy's Kahan
// sum over every flat cell index, so the two agree bit for bit on the
// same cells.
func (s *ProfileStreamState) TotalFJ() float64 {
	if s == nil {
		return 0
	}
	var k kahanSum
	next := 0
	for _, c := range s.cells {
		i := c.index()
		k.skip(i - next)
		k.add(c.FJ)
		next = i + 1
	}
	k.skip(ProfileCells - next)
	return k.sum
}

// Cells returns the reconstructed non-empty cells in flat cell-index
// order — the same order ProfileSnapshot.Cells and Full use, so the
// result feeds EqualCells directly.
func (s *ProfileStreamState) Cells() []ProfileDeltaCell {
	if s == nil {
		return nil
	}
	var out []ProfileDeltaCell
	for _, c := range s.cells {
		if floats.IsZero(c.FJ) && c.Count == 0 {
			continue
		}
		out = append(out, c)
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
