package obs

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// Symbol tallies: deferred exact-mode attribution. An exact-data bus
// channel transmits 144 symbols per dense burst, and attributing each
// one eagerly costs two atomic read-modify-writes on the shared Profile.
// Instead a channel counts its symbols in a private, non-atomic tally —
// one integer increment per symbol — and the Profile folds the counts
// in when someone reads it.
//
// Every symbol of one (phase, codec, wire, level) cell costs the same
// energy: the level's symbol energy, or the calibrated postamble
// wire-UI energy in the postamble phase. Folding a count of n therefore
// replays n identical unit additions onto the cell, which yields the
// same float bits as n eager AddSymbol calls in any interleaving with
// other writers of that cell using the same energy model.
//
// Locking: a writer holds its tally's mutex for one batch (one public
// channel call); a draining reader holds the profile's tally lock and
// then each tally's mutex. A writer never holds a tally mutex while
// taking the profile's lock, so the two orders cannot deadlock. A
// drained tally is detached from its writer, returned to a pool, and
// the writer acquires a fresh one at its next batch; in steady state
// nothing allocates.

// TallyClasses sizes a tally's class dimension: the four ΔV classes
// and the seam class. Aggregate (TransMix) samples never reach a tally.
const TallyClasses = int(TransSeam) + 1

// tallyMaxPending bounds the symbols a writer batches before draining
// its own tally: no cell can then exceed it, far below int32 overflow.
const tallyMaxPending = 1 << 24

// TallySlot counts one (phase, codec) slot's symbols by wire, level and
// transition class.
type TallySlot [ProfileWires][ProfileLevels][TallyClasses]int32

// SymbolTally is one writer's pending symbol counts. Obtain one through
// Profile.BeginTally; the slots are valid until the matching EndTally.
type SymbolTally struct {
	mu sync.Mutex
	// owner is the writer the tally counts for; a drain detaches it
	// (nil), telling a writer that still holds the pointer to acquire a
	// fresh one.
	owner   any
	pending int64
	levelE  [ProfileLevels]float64
	postE   float64
	// used marks the codecs touched per phase, so a drain scans only
	// the slots a writer filled. Slots are allocated on first use and
	// kept across pool round trips.
	used  [NumPhases]uint16
	slots [NumPhases][NumProfileCodecs]*TallySlot
}

// Drained tallies are recycled through sparePool. spareTally holds one
// of them outside the pool, where a garbage collection cannot drop it:
// a sequential run then reuses one tally, slots included, for its
// whole life.
var (
	spareTally atomic.Pointer[SymbolTally]
	sparePool  = sync.Pool{New: func() any { return new(SymbolTally) }}
)

// getTally returns a clean detached tally.
func getTally() *SymbolTally {
	if t := spareTally.Swap(nil); t != nil {
		return t
	}
	return sparePool.Get().(*SymbolTally)
}

// putTally recycles a drained tally.
func putTally(t *SymbolTally) {
	if !spareTally.CompareAndSwap(nil, t) {
		sparePool.Put(t)
	}
}

// Slot returns the counts of one (phase, codec) slot and marks it for
// the next drain. The coordinates must be in range; call between
// BeginTally and EndTally.
func (t *SymbolTally) Slot(ph Phase, codec int) *TallySlot {
	if t == nil {
		return nil
	}
	s := t.slots[ph][codec]
	if s == nil {
		s = new(TallySlot)
		t.slots[ph][codec] = s
	}
	t.used[ph] |= 1 << uint(codec)
	return s
}

// fold adds every pending count into p, clears the tally and detaches
// it from its writer. The caller holds p.tmu and t.mu.
func (t *SymbolTally) fold(p *Profile) {
	for ph := range t.used {
		for m := t.used[ph]; m != 0; m &= m - 1 {
			codec := bits.TrailingZeros16(m)
			s := t.slots[ph][codec]
			for wire := range s {
				for level := range s[wire] {
					e := t.levelE[level]
					if Phase(ph) == PhasePostamble {
						e = t.postE
					}
					for tc, n := range s[wire][level] {
						if n == 0 {
							continue
						}
						i := cellIndex(Phase(ph), codec, wire, level, TransClass(tc))
						p.energy[i].addRepeated(e, int64(n))
						p.count[i].Add(int64(n))
						s[wire][level][tc] = 0
					}
				}
			}
		}
		t.used[ph] = 0
	}
	t.owner = nil
	t.pending = 0
}

// BeginTally opens one batch of owner's symbols: it locks and returns
// t, or, when t is nil or a reader has drained it since, a fresh tally
// registered on p. The writer's symbols cost levelE[level] fJ each, or
// postE fJ in PhasePostamble. owner must be comparable and unique to
// the writer (the writer's own pointer). Nil on a nil profile.
func (p *Profile) BeginTally(t *SymbolTally, owner any, levelE [ProfileLevels]float64, postE float64) *SymbolTally {
	if p == nil {
		return nil
	}
	for {
		if t != nil {
			t.mu.Lock()
			if t.owner == owner {
				return t
			}
			t.mu.Unlock()
		}
		// A writer that lost this tally may still lock it to check the
		// owner. Register without holding its mutex (see the locking note
		// above); a drain that wins the race detaches it and the loop
		// acquires again.
		t = getTally()
		t.mu.Lock()
		t.owner, t.levelE, t.postE = owner, levelE, postE
		t.mu.Unlock()
		p.tmu.Lock()
		p.tallies = append(p.tallies, t)
		p.ntallies.Store(int32(len(p.tallies)))
		p.tmu.Unlock()
	}
}

// EndTally closes the batch BeginTally opened, adding its symbol count
// to the tally's pending total. Past the pending bound the writer
// drains its own tally.
func (p *Profile) EndTally(t *SymbolTally, owner any, symbols int) {
	if p == nil || t == nil {
		return
	}
	t.pending += int64(symbols)
	full := t.pending >= tallyMaxPending
	t.mu.Unlock()
	if full {
		p.FlushTally(t, owner)
	}
}

// FlushTally drains owner's tally t into p now and returns it to the
// pool; a tally a reader already drained is left alone.
func (p *Profile) FlushTally(t *SymbolTally, owner any) {
	if p == nil || t == nil {
		return
	}
	p.tmu.Lock()
	defer p.tmu.Unlock()
	t.mu.Lock()
	if t.owner != owner {
		t.mu.Unlock()
		return
	}
	t.fold(p)
	t.mu.Unlock()
	if i := slices.Index(p.tallies, t); i >= 0 {
		p.tallies = slices.Delete(p.tallies, i, i+1)
	}
	p.ntallies.Store(int32(len(p.tallies)))
	putTally(t)
}

// drain folds every registered tally into p so a read sees each symbol
// a writer has finished. With no tally registered it costs one atomic
// load.
func (p *Profile) drain() {
	if p.ntallies.Load() == 0 {
		return
	}
	p.tmu.Lock()
	defer p.tmu.Unlock()
	for _, t := range p.tallies {
		t.mu.Lock()
		t.fold(p)
		t.mu.Unlock()
		putTally(t)
	}
	clear(p.tallies)
	p.tallies = p.tallies[:0]
	p.ntallies.Store(0)
}
