package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"smores/internal/floats"
)

// Profile is the energy-attribution profiler: a dense table of atomic
// cells keyed by (phase × codec × wire × level × transition class), each
// accumulating femtojoules and symbol counts. The bus accounting paths
// feed it with one sample per transmitted symbol (exact-data mode) or
// one aggregate sample per closed-form energy addition (expected mode),
// so the sum over all cells always reconciles with bus.Stats.TotalEnergy
// to float round-off.
//
// Like every obs instrument, a nil *Profile is fully inert: all methods
// nil-check the receiver, adds are lock-free atomics, and the hot path
// allocates nothing. One Profile may be shared by many channels and
// goroutines (the fleet runner shares one per evaluation run).
// Exact-mode channels feed it through symbol tallies (tally.go) that
// every read drains first, so a read sees each finished write.
//
// A run touches a few cells of the grid (an expected-mode session 3 to
// 15 of ~36k), so the profile also keeps a bitmap of the cells that ever
// received a non-empty write. Every roll-up, snapshot, merge and stream
// encoder walks the set bits in flat cell-index order instead of the
// whole grid; the energy totals replay the skipped zero cells so their
// Kahan sums keep the dense loop's bits (kahanSum.skip).

// Phase classifies where on the bus an energy sample was burned.
type Phase uint8

// Attribution phases. They partition bus.Stats.TotalEnergy():
// MTAPayload+DBIWire+SparsePayload+IdleShift sum to WireEnergy,
// PhasePostamble to PostambleEnergy, PhaseLogic to LogicEnergy,
// PhaseReplay to ReplayEnergy (EDC-triggered retransmissions).
const (
	// PhaseMTAPayload is energy on the eight MTA-encoded data wires of a
	// dense burst.
	PhaseMTAPayload Phase = iota
	// PhaseDBIWire is energy on the ninth wire of a group: MSB traffic
	// during MTA bursts, swap metadata during sparse/DBI bursts, the
	// inversion-flag symbol in the prior-art PAM4-DBI baseline.
	PhaseDBIWire
	// PhaseSparsePayload is energy on the data wires of a sparse burst.
	PhaseSparsePayload
	// PhasePostamble is the driven L1 postamble.
	PhasePostamble
	// PhaseIdleShift is the level-shifted idle seam symbol (optimized
	// MTA, Fig. 8b) stepping L3 wires through L1 on the way to idle.
	PhaseIdleShift
	// PhaseLogic is encoder+decoder logic energy (not wire drive).
	PhaseLogic
	// PhaseReplay is wire+logic energy burned by EDC-triggered burst
	// retransmissions (internal/fault + the memctrl replay queue). It
	// carries real per-symbol wire/level/transition identity like the
	// payload phases, but delivers no new data bits, so it is accounted
	// outside WireEnergy in bus.Stats.ReplayEnergy.
	PhaseReplay

	// NumPhases sizes the phase dimension.
	NumPhases = 7
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseMTAPayload:
		return "mta-payload"
	case PhaseDBIWire:
		return "dbi-wire"
	case PhaseSparsePayload:
		return "sparse-payload"
	case PhasePostamble:
		return "postamble"
	case PhaseIdleShift:
		return "idle-shift"
	case PhaseLogic:
		return "logic"
	case PhaseReplay:
		return "replay"
	default:
		return fmt.Sprintf("phase(%d)", uint8(p))
	}
}

// TransClass classifies the voltage step that produced a symbol.
type TransClass uint8

// Transition classes: the three legal ΔV magnitudes, the 3ΔV step that
// only the restriction-exempt DBI wire may take, the level-shift seam,
// and the aggregate bucket used by closed-form expected-mode samples.
const (
	Trans0DV TransClass = iota
	Trans1DV
	Trans2DV
	Trans3DV
	// TransSeam marks symbols rewritten by the level-shifting seam rule
	// (a sparse symbol following an L3, or the idle-shift step).
	TransSeam
	// TransMix is the expected-mode aggregate: closed-form energies have
	// no per-symbol transition identity.
	TransMix

	// NumTransClasses sizes the transition dimension.
	NumTransClasses = 6
)

// TransOfDelta maps a ΔV magnitude (0..3) to its class.
func TransOfDelta(d int) TransClass {
	if d < 0 || d > 3 {
		return TransMix
	}
	return TransClass(d)
}

// String names the transition class.
func (t TransClass) String() string {
	switch t {
	case Trans0DV:
		return "0dv"
	case Trans1DV:
		return "1dv"
	case Trans2DV:
		return "2dv"
	case Trans3DV:
		return "3dv"
	case TransSeam:
		return "seam"
	case TransMix:
		return "mix"
	default:
		return fmt.Sprintf("trans(%d)", uint8(t))
	}
}

// Codec indices for the profile's codec dimension. Sparse codes map by
// output length through ProfileCodecIndex; the two prior-art PAM4
// baselines get their own slots so package dbi can feed the profiler.
const (
	ProfileCodecMTA     = 0
	ProfileCodecPAM4    = 7
	ProfileCodecPAM4DBI = 8

	// NumProfileCodecs sizes the codec dimension: mta, 4b3s..4b8s,
	// pam4, pam4/dbi.
	NumProfileCodecs = 9

	// profileMinSparse / profileMaxSparse mirror core.{Min,Max}SparseSymbols
	// without importing core (obs stays dependency-free).
	profileMinSparse = 3
	profileMaxSparse = 8
)

// ProfileCodecIndex maps a burst code length (0 = dense MTA, 3..8 = the
// 4b{3..8}s sparse codes) to its codec-dimension index. Unknown lengths
// return -1 and are dropped by Add*.
func ProfileCodecIndex(codeLength int) int {
	switch {
	case codeLength == 0:
		return ProfileCodecMTA
	case codeLength >= profileMinSparse && codeLength <= profileMaxSparse:
		return codeLength - profileMinSparse + 1
	default:
		return -1
	}
}

// ProfileCodecName names a codec-dimension index.
func ProfileCodecName(idx int) string {
	switch {
	case idx == ProfileCodecMTA:
		return "mta"
	case idx >= 1 && idx <= profileMaxSparse-profileMinSparse+1:
		return fmt.Sprintf("4b%ds", idx+profileMinSparse-1)
	case idx == ProfileCodecPAM4:
		return "pam4"
	case idx == ProfileCodecPAM4DBI:
		return "pam4-dbi"
	default:
		return fmt.Sprintf("codec(%d)", idx)
	}
}

// Wire and level dimensions. A GDDR6X data channel is 18 wires (two
// byte groups of 8 data + 1 DBI); WireAgg and LevelMix hold the
// closed-form expected-mode samples that carry no per-wire/per-level
// identity.
const (
	// ProfileWires is the per-channel physical wire count.
	ProfileWires = 18
	// WireAgg is the pseudo-wire for aggregate samples.
	WireAgg = ProfileWires

	// ProfileLevels covers L0..L3.
	ProfileLevels = 4
	// LevelMix is the pseudo-level for aggregate samples.
	LevelMix = ProfileLevels

	profileWireDim  = ProfileWires + 1
	profileLevelDim = ProfileLevels + 1

	// ProfileCells is the total cell count of the attribution table.
	ProfileCells = NumPhases * NumProfileCodecs * profileWireDim * profileLevelDim * NumTransClasses

	// profileWords sizes the touched-cell bitmap.
	profileWords = (ProfileCells + 63) / 64
)

// Profile is the attribution table. Construct with NewProfile; the zero
// value is not usable (use nil for "off").
type Profile struct {
	energy []FloatCounter
	count  []atomic.Int64
	// touched has bit i set once cell i received a non-empty write. Bits
	// are only ever set, and a writer sets a cell's bit before its value.
	touched [profileWords]atomic.Uint64

	// tallies are the writers' pending symbol tallies; ntallies mirrors
	// their count so a read with none pending skips the lock.
	tmu      sync.Mutex
	tallies  []*SymbolTally
	ntallies atomic.Int32
}

// NewProfile builds an empty attribution profile (~0.6 MB of atomic
// cells plus a 4.5 KB touched-cell bitmap, shared by every channel that
// is handed the pointer).
func NewProfile() *Profile {
	return &Profile{
		energy: make([]FloatCounter, ProfileCells),
		count:  make([]atomic.Int64, ProfileCells),
	}
}

// On reports whether the profile is collecting (false for nil).
func (p *Profile) On() bool { return p != nil }

// cellIndex flattens a key; returns -1 for out-of-range coordinates.
func cellIndex(ph Phase, codec, wire, level int, tc TransClass) int {
	if ph >= NumPhases || tc >= NumTransClasses ||
		codec < 0 || codec >= NumProfileCodecs ||
		wire < 0 || wire >= profileWireDim ||
		level < 0 || level >= profileLevelDim {
		return -1
	}
	return ((((int(ph)*NumProfileCodecs+codec)*profileWireDim+wire)*
		profileLevelDim + level) * NumTransClasses) + int(tc)
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

// touch sets cell i's bit. Once the bit is set a write pays one atomic
// load; the CAS runs only while the bit is still clear.
func (p *Profile) touch(i int) {
	w, m := &p.touched[i>>6], uint64(1)<<(i&63)
	for {
		old := w.Load()
		if old&m != 0 || w.CompareAndSwap(old, old|m) {
			return
		}
	}
}

// nextTouched returns the first touched cell index >= i, or ProfileCells
// when there is none. Walk the touched cells in flat order with
//
//	for i := p.nextTouched(0); i < ProfileCells; i = p.nextTouched(i + 1)
func (p *Profile) nextTouched(i int) int {
	if i >= ProfileCells {
		return ProfileCells
	}
	w := i >> 6
	m := p.touched[w].Load() &^ (uint64(1)<<(i&63) - 1)
	for m == 0 {
		if w++; w == profileWords {
			return ProfileCells
		}
		m = p.touched[w].Load()
	}
	return w<<6 | bits.TrailingZeros64(m)
}

// addCell adds fj and n to cell i, marking it touched first; empty and
// non-positive parts are dropped.
//
//smores:hotpath
func (p *Profile) addCell(i int, fj float64, n int64) {
	if fj > 0 || n > 0 {
		p.touch(i)
	}
	if fj > 0 {
		p.energy[i].Add(fj)
	}
	if n > 0 {
		p.count[i].Add(n)
	}
}

// kahanSum is the Kahan-compensated running sum behind every energy
// total, so the reconciliation bound is the feeding paths' rounding,
// not the export's.
type kahanSum struct{ sum, comp float64 }

func (k *kahanSum) add(v float64) {
	y := v - k.comp
	t := k.sum + y
	k.comp = (t - k.sum) - y
	k.sum = t
}

// skip adds n zero terms, the cells a sparse walk passes over. A zero
// still folds the pending compensation into the sum, so the steps are
// replayed until (sum, comp) stops changing: that fixed point, reached
// within a few steps, is what every further zero keeps. The result has
// the bits of a dense loop over the zeros.
func (k *kahanSum) skip(n int) {
	for ; n > 0; n-- {
		prev := *k
		k.add(0)
		if math.Float64bits(prev.sum) == math.Float64bits(k.sum) &&
			math.Float64bits(prev.comp) == math.Float64bits(k.comp) {
			return
		}
	}
}

// energyRange is the Kahan sum of cells lo..hi-1 in flat order.
func (p *Profile) energyRange(lo, hi int) float64 {
	var k kahanSum
	next := lo
	for i := p.nextTouched(lo); i < hi; i = p.nextTouched(i + 1) {
		k.skip(i - next)
		k.add(p.energy[i].Value())
		next = i + 1
	}
	k.skip(hi - next)
	return k.sum
}

// Add records n symbols of fj total energy in one cell. Nil-safe,
// lock-free, zero-allocation; out-of-range keys are dropped.
//
//smores:hotpath
func (p *Profile) Add(ph Phase, codec, wire, level int, tc TransClass, fj float64, n int64) {
	if p == nil {
		return
	}
	if i := cellIndex(ph, codec, wire, level, tc); i >= 0 {
		p.addCell(i, fj, n)
	}
}

// AddSymbol records one transmitted symbol.
func (p *Profile) AddSymbol(ph Phase, codec, wire, level int, tc TransClass, fj float64) {
	p.Add(ph, codec, wire, level, tc, fj, 1)
}

// AddAggregate records a closed-form expected-mode energy sample with no
// per-wire/level/transition identity (wire=agg, level=mix, trans=mix).
func (p *Profile) AddAggregate(ph Phase, codec int, fj float64, symbols int64) {
	p.Add(ph, codec, WireAgg, LevelMix, TransMix, fj, symbols)
}

// Cell returns one cell's accumulated energy and symbol count.
func (p *Profile) Cell(ph Phase, codec, wire, level int, tc TransClass) (fj float64, n int64) {
	if p == nil {
		return 0, 0
	}
	i := cellIndex(ph, codec, wire, level, tc)
	if i < 0 {
		return 0, 0
	}
	p.drain()
	return p.energy[i].Value(), p.count[i].Load()
}

// TotalEnergy sums every cell in fJ. Reconciles with the channel's
// Stats.TotalEnergy() to float round-off (test-enforced).
func (p *Profile) TotalEnergy() float64 {
	if p == nil {
		return 0
	}
	p.drain()
	return p.energyRange(0, ProfileCells)
}

// TotalSymbols sums every cell's symbol count.
func (p *Profile) TotalSymbols() int64 {
	if p == nil {
		return 0
	}
	p.drain()
	var n int64
	for i := p.nextTouched(0); i < ProfileCells; i = p.nextTouched(i + 1) {
		n += p.count[i].Load()
	}
	return n
}

// PhaseEnergy sums the cells of one phase.
func (p *Profile) PhaseEnergy(ph Phase) float64 {
	if p == nil || ph >= NumPhases {
		return 0
	}
	p.drain()
	stride := NumProfileCodecs * profileWireDim * profileLevelDim * NumTransClasses
	base := int(ph) * stride
	return p.energyRange(base, base+stride)
}

// CodecEnergy sums the cells of one codec index across phases.
func (p *Profile) CodecEnergy(codec int) float64 {
	if p == nil || codec < 0 || codec >= NumProfileCodecs {
		return 0
	}
	p.drain()
	// A plain sum in flat order; skipped cells add +0, which changes no
	// non-negative sum.
	var sum float64
	for i := p.nextTouched(0); i < ProfileCells; i = p.nextTouched(i + 1) {
		if _, c, _, _, _ := cellCoords(i); c == codec {
			sum += p.energy[i].Value()
		}
	}
	return sum
}

// ProfileCell is one non-empty attribution cell in a snapshot.
type ProfileCell struct {
	Phase Phase
	Codec int
	Wire  int // WireAgg for aggregate samples
	Level int // LevelMix for aggregate samples
	Trans TransClass
	FJ    float64
	Count int64
}

// LevelName renders the cell's level ("L0".."L3" or "mix").
func (c ProfileCell) LevelName() string {
	if c.Level == LevelMix {
		return "mix"
	}
	return fmt.Sprintf("L%d", c.Level)
}

// WireName renders the cell's wire index ("0".."17" or "agg").
func (c ProfileCell) WireName() string {
	if c.Wire == WireAgg {
		return "agg"
	}
	return fmt.Sprintf("%d", c.Wire)
}

// ProfileSnapshot is a point-in-time copy of the non-empty cells plus
// roll-ups, ordered by (phase, codec, wire, level, trans).
type ProfileSnapshot struct {
	Cells       []ProfileCell
	TotalFJ     float64
	Symbols     int64
	PhaseFJ     [NumPhases]float64
	CodecFJ     [NumProfileCodecs]float64
	CodecCounts [NumProfileCodecs]int64
}

// Snapshot captures every non-empty cell. A scrape racing with
// observations may miss in-flight samples but never reads torn values.
func (p *Profile) Snapshot() ProfileSnapshot {
	if p == nil {
		return ProfileSnapshot{}
	}
	p.drain()
	var s ProfileSnapshot
	for i := p.nextTouched(0); i < ProfileCells; i = p.nextTouched(i + 1) {
		fj := p.energy[i].Value()
		n := p.count[i].Load()
		if floats.Eq(fj, 0) && n == 0 {
			continue
		}
		ph, codec, wire, level, tc := cellCoords(i)
		s.Cells = append(s.Cells, ProfileCell{
			Phase: ph, Codec: codec, Wire: wire,
			Level: level, Trans: tc, FJ: fj, Count: n,
		})
		s.TotalFJ += fj
		s.Symbols += n
		s.PhaseFJ[ph] += fj
		s.CodecFJ[codec] += fj
		s.CodecCounts[codec] += n
	}
	return s
}
