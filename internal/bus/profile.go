package bus

// Energy attribution: the channel's accounting paths feed every
// femtojoule they add to Stats into an obs.Profile keyed by
// (phase × codec × wire × level × transition class).
//
// In exact-data mode each transmitted symbol is attributed individually
// with its real voltage-step class, counted in a channel-local symbol
// tally that the profile drains on every read (obs/tally.go); in
// expected mode the closed-form energies land in aggregate cells
// (wire="agg", level="mix", transition="mix"). Either way the profiler's TotalEnergy reconciles
// with Stats.TotalEnergy to float round-off — a property the
// conservation tests enforce for every policy × scheme combination.
//
// Phase partition of Stats:
//
//	WireEnergy      = mta-payload + dbi-wire + sparse-payload + idle-shift
//	PostambleEnergy = postamble
//	LogicEnergy     = logic
//	ReplayEnergy    = replay (retransmission wire+logic, see hook.go)

import (
	"smores/internal/mta"
	"smores/internal/obs"
	"smores/internal/pam4"
)

// Profile returns the channel's attached energy profiler (nil when
// attribution is disabled).
func (ch *Channel) Profile() *obs.Profile { return ch.prof }

// transClass is the profiler's transition class of a symbol, indexed
// [seam][prev][level]: the ΔV magnitude class of the step from prev,
// except that in seam phases (sparse payload, idle shift, sparse
// replays) a symbol following an L3 was rewritten by the level-shifting
// rule and is classed TransSeam.
var transClass = func() (t [2][pam4.NumLevels][pam4.NumLevels]obs.TransClass) {
	for prev := pam4.L0; prev <= pam4.L3; prev++ {
		for l := pam4.L0; l <= pam4.L3; l++ {
			t[0][prev][l] = obs.TransOfDelta(pam4.Delta(prev, l))
			t[1][prev][l] = t[0][prev][l]
			if prev == pam4.L3 {
				t[1][prev][l] = obs.TransSeam
			}
		}
	}
	return t
}()

// route directs one public call's exact-mode symbols into the channel's
// symbol tally: the call opens a batch (beginTally), picks the burst's
// slots once (to), and each symbol is then one increment (column). The
// zero route (expected mode or no profile) counts nothing.
type route struct {
	t *obs.SymbolTally
	// data and dbi count the group's eight data wires and its ninth
	// wire; class is the burst's row of transClass.
	data, dbi *obs.TallySlot
	class     *[pam4.NumLevels][pam4.NumLevels]obs.TransClass
	// cols counts the batch's columns.
	cols int
}

// beginTally opens a batch of symbols when the channel attributes exact
// symbols, acquiring a fresh tally if a profile read drained the last.
func (ch *Channel) beginTally(r *route) {
	if ch.exact && ch.prof != nil {
		ch.tally = ch.prof.BeginTally(ch.tally, ch, ch.levelE, ch.model.PostambleWireUIEnergy())
		r.t = ch.tally
	}
}

// endTally closes the batch beginTally opened.
func (ch *Channel) endTally(r *route) {
	if r.t != nil {
		ch.prof.EndTally(r.t, ch, r.cols*mta.GroupWires)
	}
}

// to selects the slots for the following columns: ph for the data
// wires, dbiPh for the ninth wire, seam for the class row.
func (r *route) to(ph, dbiPh obs.Phase, codec int, seam bool) {
	if r.t == nil {
		return
	}
	r.data = r.t.Slot(ph, codec)
	r.dbi = r.data
	if dbiPh != ph {
		r.dbi = r.t.Slot(dbiPh, codec)
	}
	r.class = &transClass[0]
	if seam {
		r.class = &transClass[1]
	}
}

// column counts one transmitted column of group g; prev holds the
// group's previous column.
func (r *route) column(g int, prev *mta.GroupState, col mta.Column) {
	base := g * mta.GroupWires
	for w := 0; w < mta.DBIWire; w++ {
		l := col[w]
		r.data[base+w][l][r.class[prev[w]][l]]++
	}
	l := col[mta.DBIWire]
	r.dbi[base+mta.DBIWire][l][r.class[prev[mta.DBIWire]][l]]++
	r.cols++
}

// postamble counts one group's L1 postamble drive: per wire, the first
// UI carries the entry transition from the trailing level prev, the
// remaining UIs hold L1 (0ΔV).
func (r *route) postamble(g int, prev *mta.GroupState) {
	slot := r.t.Slot(obs.PhasePostamble, obs.ProfileCodecMTA)
	base := g * mta.GroupWires
	for w, l := range prev {
		cell := &slot[base+w][mta.PostambleLevel]
		cell[transClass[0][l][mta.PostambleLevel]]++
		cell[obs.Trans0DV] += int32(PostambleUIs() - 1)
	}
	r.cols += int(PostambleUIs())
}
