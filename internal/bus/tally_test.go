package bus

import (
	"math"
	"math/rand"
	"testing"

	"smores/internal/mta"
	"smores/internal/obs"
	"smores/internal/pam4"
)

// eagerOracle is the per-symbol attribution the channel used before
// symbol tallies: every transmitted symbol is one AddSymbol on the
// profile. It re-derives the transmitted columns from the same
// operations and its own copy of the trailing wire state, with the
// channel's codecs, model and logic energies.
type eagerOracle struct {
	ch     *Channel
	p      *obs.Profile
	states [Groups]mta.GroupState
}

func newEagerOracle(ch *Channel) *eagerOracle {
	o := &eagerOracle{ch: ch, p: obs.NewProfile()}
	for g := range o.states {
		o.states[g] = mta.IdleGroupState()
	}
	return o
}

// burst attributes one burst (or, with replay, one retransmission) of
// code length cl.
func (o *eagerOracle) burst(data []byte, cl int, replay bool) {
	codec := obs.ProfileCodecIndex(cl)
	logic := BurstBytes * 8 * o.ch.sparseLogic
	ph := obs.PhaseSparsePayload
	if cl == 0 {
		logic = BurstBytes * 8 * o.ch.mtaLogic
		ph = obs.PhaseMTAPayload
	}
	if replay {
		o.p.AddAggregate(obs.PhaseReplay, codec, logic, 0)
	} else {
		o.p.AddAggregate(obs.PhaseLogic, codec, logic, 0)
	}
	for g := range o.states {
		prev := o.states[g]
		var cols []mta.Column
		if cl == 0 {
			for beat := 0; beat < 2; beat++ {
				var bytes8 [mta.GroupDataWires]byte
				copy(bytes8[:], data[g*GroupBurstBytes+beat*mta.GroupDataWires:])
				b := o.ch.mtaCodec.EncodeGroupBeat(bytes8, &o.states[g])
				bc := b.Columns()
				cols = append(cols, bc[:]...)
			}
		} else {
			var err error
			cols, err = o.ch.family.ByLength(cl).AppendGroupBurst(nil, data[g*GroupBurstBytes:(g+1)*GroupBurstBytes], &o.states[g])
			if err != nil {
				panic(err)
			}
		}
		for _, col := range cols {
			if replay {
				o.replayColumn(g, &prev, col, codec)
			} else {
				o.column(g, &prev, col, ph, codec)
			}
		}
	}
}

// column attributes one column symbol by symbol: the ninth wire goes to
// PhaseDBIWire except in the idle-shift step, and a sparse or
// idle-shift symbol following an L3 is classed TransSeam.
func (o *eagerOracle) column(g int, prev *mta.GroupState, col mta.Column, ph obs.Phase, codec int) {
	seamPhase := ph == obs.PhaseSparsePayload || ph == obs.PhaseIdleShift
	base := g * mta.GroupWires
	for w, l := range col {
		wph := ph
		if w == mta.DBIWire && ph != obs.PhaseIdleShift {
			wph = obs.PhaseDBIWire
		}
		tc := obs.TransOfDelta(pam4.Delta(prev[w], l))
		if seamPhase && prev[w] == pam4.L3 {
			tc = obs.TransSeam
		}
		o.p.AddSymbol(wph, codec, base+w, int(l), tc, o.ch.levelE[l])
	}
	*prev = mta.GroupState(col)
}

// replayColumn attributes one retransmitted column: every wire in
// PhaseReplay, seams only for sparse codecs.
func (o *eagerOracle) replayColumn(g int, prev *mta.GroupState, col mta.Column, codec int) {
	base := g * mta.GroupWires
	for w, l := range col {
		tc := obs.TransOfDelta(pam4.Delta(prev[w], l))
		if codec != obs.ProfileCodecMTA && prev[w] == pam4.L3 {
			tc = obs.TransSeam
		}
		o.p.AddSymbol(obs.PhaseReplay, codec, base+w, int(l), tc, o.ch.levelE[l])
	}
	*prev = mta.GroupState(col)
}

// postamble attributes the L1 postamble: per wire, the entry transition
// from the trailing level, then 0ΔV for the remaining UIs.
func (o *eagerOracle) postamble() {
	e := o.ch.model.PostambleWireUIEnergy()
	for g := range o.states {
		base := g * mta.GroupWires
		for w, l := range o.states[g] {
			tc := obs.TransOfDelta(pam4.Delta(l, mta.PostambleLevel))
			o.p.AddSymbol(obs.PhasePostamble, obs.ProfileCodecMTA, base+w, int(mta.PostambleLevel), tc, e)
			for ui := 1; ui < int(PostambleUIs()); ui++ {
				o.p.AddSymbol(obs.PhasePostamble, obs.ProfileCodecMTA, base+w, int(mta.PostambleLevel), obs.Trans0DV, e)
			}
			o.states[g][w] = mta.PostambleLevel
		}
	}
}

// idle attributes the level-shifted idle step (L3 wires through L1)
// when the channel shifts, and parks the wires.
func (o *eagerOracle) idle() {
	for g := range o.states {
		if o.ch.shiftIdle {
			prev := o.states[g]
			var step mta.Column
			needed := false
			for w := range step {
				step[w] = pam4.L0
				if prev[w] == pam4.L3 {
					step[w] = pam4.L1
					needed = true
				}
			}
			if needed {
				o.column(g, &prev, step, obs.PhaseIdleShift, obs.ProfileCodecMTA)
			}
		}
		o.states[g] = mta.IdleGroupState()
	}
}

// tallyPolicies are the bus-side views of the five encoding policies:
// the code lengths the controller may pick and whether idle is level
// shifted (optimized MTA).
var tallyPolicies = [5]struct {
	name    string
	shift   bool
	lengths []int
}{
	{"baseline-mta", false, []int{0}},
	{"optimized-mta", true, []int{0}},
	{"smores-variable-exhaustive", false, []int{0, 3, 4, 5, 6, 7, 8}},
	{"smores-static-exhaustive", false, []int{0, 3}},
	{"smores-static-conservative", false, []int{0, 3}},
}

// sameCells fails unless two snapshots hold the same cells with
// bit-identical energies and equal counts.
func sameCells(t *testing.T, what string, got, want obs.ProfileSnapshot) {
	t.Helper()
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("%s: %d cells, oracle has %d", what, len(got.Cells), len(want.Cells))
	}
	for i, g := range got.Cells {
		w := want.Cells[i]
		if g.Phase != w.Phase || g.Codec != w.Codec || g.Wire != w.Wire || g.Level != w.Level || g.Trans != w.Trans ||
			math.Float64bits(g.FJ) != math.Float64bits(w.FJ) || g.Count != w.Count {
			t.Fatalf("%s: cell %d is %+v, oracle has %+v", what, i, g, w)
		}
	}
}

// runTallyOps decodes ops into channel operations: data[0] picks the
// policy, data[1] seeds the payloads, every further byte is one
// operation (low three bits the kind, the rest its argument). Bursts,
// replays, postambles and idles drive the channel and the oracle alike;
// profile reads and Stats calls drain the tally mid-stream, and every
// snapshot read is checked against the oracle. Returns the channel.
func runTallyOps(t *testing.T, data []byte) *Channel {
	t.Helper()
	if len(data) < 2 {
		return nil
	}
	pol := tallyPolicies[int(data[0])%len(tallyPolicies)]
	rng := rand.New(rand.NewSource(int64(data[1])))
	p := obs.NewProfile()
	ch := New(Config{ExactData: true, LevelShiftedIdle: pol.shift,
		MTALogicPerBit: -1, SparseLogicPerBit: -1, Profile: p})
	o := newEagerOracle(ch)
	sink := obs.NewProfile()
	for _, b := range data[2:] {
		arg := int(b >> 3)
		cl := pol.lengths[arg%len(pol.lengths)]
		switch b & 7 {
		case 0, 1, 2:
			sector := randomSector(rng)
			if err := ch.SendBurst(sector, cl); err != nil {
				t.Fatal(err)
			}
			o.burst(sector, cl, false)
		case 3:
			sector := randomSector(rng)
			if err := ch.ReplayBurst(sector, cl); err != nil {
				t.Fatal(err)
			}
			o.burst(sector, cl, true)
		case 4:
			ch.Postamble()
			o.postamble()
		case 5:
			ch.Idle(int64(1 + arg%8))
			o.idle()
		case 6:
			switch arg % 4 {
			case 0:
				sameCells(t, "mid-stream snapshot", p.Snapshot(), o.p.Snapshot())
			case 1:
				p.TotalEnergy()
			case 2:
				ch.Stats()
			default:
				sink.Merge(p)
			}
		default:
			// A code length outside the family fails before any
			// accounting: the batch must still close.
			if err := ch.SendBurst(randomSector(rng), 1); err == nil {
				t.Fatal("code length 1 accepted")
			}
		}
	}
	sameCells(t, pol.name, p.Snapshot(), o.p.Snapshot())
	return ch
}

// tallyStream builds a random operation stream for runTallyOps.
func tallyStream(rng *rand.Rand, policy byte, n int) []byte {
	data := make([]byte, n+2)
	rng.Read(data)
	data[0] = policy
	return data
}

// TestProfileTallyMatchesOracle drives long random operation streams
// under every policy's bus configuration and demands the tallied
// profile equal the eager per-symbol oracle cell for cell.
func TestProfileTallyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := range tallyPolicies {
		t.Run(tallyPolicies[i].name, func(t *testing.T) {
			runTallyOps(t, tallyStream(rng, byte(i), 3000))
		})
	}
}

// FuzzProfileTally is TestProfileTallyMatchesOracle over fuzzed
// operation streams.
func FuzzProfileTally(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	for i := range tallyPolicies {
		f.Add(tallyStream(rng, byte(i), 120))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runTallyOps(t, data)
	})
}

// TestProfileTallyConcurrentReads drives an exact channel while another
// goroutine reads and merges its profile in a loop: every read drains
// the tally under the writer's feet, and the final cells must equal a
// single-goroutine run's.
func TestProfileTallyConcurrentReads(t *testing.T) {
	for _, shift := range []bool{false, true} {
		drive := func(p *obs.Profile) {
			ch := New(Config{ExactData: true, LevelShiftedIdle: shift,
				MTALogicPerBit: -1, SparseLogicPerBit: -1, Profile: p})
			rng := rand.New(rand.NewSource(5))
			lengths := []int{0, 3, 4, 5, 6, 7, 8}
			for i := 0; i < 2000; i++ {
				cl := lengths[rng.Intn(len(lengths))]
				if err := ch.SendBurst(randomSector(rng), cl); err != nil {
					t.Error(err)
					return
				}
				switch rng.Intn(4) {
				case 0:
					if err := ch.ReplayBurst(randomSector(rng), cl); err != nil {
						t.Error(err)
						return
					}
				case 1:
					ch.Postamble()
					ch.Idle(int64(1 + rng.Intn(6)))
				case 2:
					ch.Idle(int64(1 + rng.Intn(6)))
				}
			}
		}
		want := obs.NewProfile()
		drive(want)

		got := obs.NewProfile()
		started, stop, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		reads := 0
		go func() {
			defer close(done)
			sink, empty := obs.NewProfile(), obs.NewProfile()
			for {
				got.Snapshot()
				got.TotalEnergy()
				sink.Merge(got)
				got.Merge(empty)
				if reads++; reads == 1 {
					close(started)
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
		<-started
		drive(got)
		close(stop)
		<-done
		sameCells(t, "concurrent reads", got.Snapshot(), want.Snapshot())
		t.Logf("shift=%v: %d read loops raced the writer", shift, reads)
	}
}
