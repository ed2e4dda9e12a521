package bus

// Fault-injection hook: the link-reliability subsystem (internal/fault)
// observes every transferred burst through a BurstHook installed at
// channel construction. The hook is the only coupling point — the bus
// never imports the fault package — and it is zero-overhead when nil:
// the uninstalled path costs one predictable branch per burst and
// allocates nothing (enforced by TestExactSteadyStateAllocFree and the
// hotpathalloc analyzer).
//
// Replay: when a hook reports a detected error, the memory controller
// retransmits the sector through ReplayBurst. Replays re-encode from the
// channel's *current* trailing wire state (the physically correct
// behavior — the wires are wherever the corrupted transmission left
// them), occupy wire time, and burn wire+logic energy, but deliver no
// new payload bits; their cost is accounted separately in
// Stats.ReplayEnergy / Stats.ReplayBursts and attributed to the
// profiler's PhaseReplay so the savings waterfall can price reliability.

import (
	"fmt"

	"smores/internal/mta"
	"smores/internal/obs"
)

// BurstVerdict is a hook's judgement of one transferred burst.
type BurstVerdict struct {
	// Injected is the number of symbol errors the hook injected into this
	// burst's transmitted stream (0 = the burst arrived clean).
	Injected int
	// Detected reports whether any detection layer — codebook, transition
	// legality, or EDC — flagged the burst, i.e. whether the receiver
	// would request a replay.
	Detected bool
}

// BurstHook observes every burst a channel transfers in exact-data mode.
// data is the 32-byte payload, codeLength the encoding (0 = dense MTA),
// pre the per-group trailing wire levels the encoder saw before the
// burst, and replay whether this transmission is an EDC-triggered
// retransmission. Implementations are driven from the simulation's
// single-threaded hot path and need not be concurrency-safe, but must
// not retain data or pre past the call.
type BurstHook interface {
	OnBurst(data []byte, codeLength int, pre [Groups]mta.GroupState, replay bool) BurstVerdict
}

// LastBurstVerdict returns the hook's verdict for the most recent burst
// (including replays). Zero when no hook is installed or the channel
// runs in expected mode.
func (ch *Channel) LastBurstVerdict() BurstVerdict { return ch.verdict }

// faultActive reports whether burst dispatch to the fault hook is live:
// hooks only see exact-data symbol streams.
//
//smores:hotpath
func (ch *Channel) faultActive() bool { return ch.fault != nil && ch.exact }

// dispatchFault forwards one completed burst to the installed hook and
// latches its verdict. The nil-hook path never reaches here (callers
// gate on faultActive), so the hot-path cost of a disabled hook is the
// gate's two predictable branches.
//
//smores:hotpath
func (ch *Channel) dispatchFault(data []byte, codeLength int, pre [Groups]mta.GroupState, replay bool) {
	ch.verdict = ch.fault.OnBurst(data, codeLength, pre, replay)
}

// ReplayBurst retransmits one 32-byte sector after the receiver flagged
// the previous transmission. Exact-data mode only. The replay re-encodes
// from the current trailing wire state, so the transmitted symbols (and
// their energy) generally differ from the original burst. Accounting:
//
//   - Stats.ReplayEnergy gets the wire + logic energy (TotalEnergy
//     includes it; WireEnergy/LogicEnergy and DataBits do not move —
//     replays deliver no new payload).
//   - Stats.ReplayBursts and BusyUIs advance; the profiler sees every
//     symbol under PhaseReplay with real wire/level/transition identity.
//   - The installed hook observes the retransmission (replay=true), so a
//     replay can itself be corrupted and re-detected.
func (ch *Channel) ReplayBurst(data []byte, codeLength int) error {
	if !ch.exact {
		return fmt.Errorf("bus: ReplayBurst requires exact-data mode")
	}
	if len(data) != BurstBytes {
		return fmt.Errorf("bus: replay burst needs %d bytes, got %d", BurstBytes, len(data))
	}
	if ch.recording {
		ch.record(Event{Kind: EventReplay, CodeLength: codeLength, Data: append([]byte(nil), data...)})
	}
	var before Stats
	if ch.m.on {
		before = ch.stats
	}
	var pre [Groups]mta.GroupState
	hook := ch.faultActive()
	if hook {
		pre = ch.states
	}
	var err error
	var r route
	ch.beginTally(&r)
	if codeLength == 0 {
		err = ch.replayMTA(data, &r)
	} else {
		err = ch.replaySparse(data, codeLength, &r)
	}
	ch.endTally(&r)
	if err != nil {
		return err
	}
	ch.stats.ReplayBursts++
	if ch.m.on {
		ch.mirrorDeltas(before)
	}
	if hook {
		ch.dispatchFault(data, codeLength, pre, true)
	}
	return nil
}

// replayMTA retransmits a dense burst, accounting into ReplayEnergy.
func (ch *Channel) replayMTA(data []byte, r *route) error {
	ch.stats.BusyUIs += BurstUIs
	ch.stats.ReplayEnergy += BurstBytes * 8 * ch.mtaLogic
	ch.prof.AddAggregate(obs.PhaseReplay, obs.ProfileCodecMTA, BurstBytes*8*ch.mtaLogic, 0)
	ch.lastMTA = true
	r.to(obs.PhaseReplay, obs.PhaseReplay, obs.ProfileCodecMTA, false)
	for g := 0; g < Groups; g++ {
		for beat := 0; beat < 2; beat++ {
			var bytes8 [mta.GroupDataWires]byte
			copy(bytes8[:], data[g*GroupBurstBytes+beat*mta.GroupDataWires:])
			prev := ch.states[g]
			b := ch.mtaCodec.EncodeGroupBeat(bytes8, &ch.states[g])
			for _, col := range b.Columns() {
				ch.accountReplayColumn(g, &prev, col, r)
			}
		}
	}
	return nil
}

// replaySparse retransmits a sparse burst, accounting into ReplayEnergy.
func (ch *Channel) replaySparse(data []byte, codeLength int, r *route) error {
	sc := ch.family.ByLength(codeLength)
	if sc == nil {
		return fmt.Errorf("bus: no sparse codec of length %d in family", codeLength)
	}
	ch.stats.BusyUIs += int64(sc.BurstUIs(GroupBurstBytes))
	logic := BurstBytes * 8 * ch.sparseLogic
	ch.stats.ReplayEnergy += logic
	codecIdx := obs.ProfileCodecIndex(codeLength)
	ch.prof.AddAggregate(obs.PhaseReplay, codecIdx, logic, 0)
	ch.lastMTA = false
	ch.mtaChain = 0
	r.to(obs.PhaseReplay, obs.PhaseReplay, codecIdx, true)
	for g := 0; g < Groups; g++ {
		prev := ch.states[g]
		cols, err := sc.AppendGroupBurst(ch.colScratch[:0], data[g*GroupBurstBytes:(g+1)*GroupBurstBytes], &ch.states[g])
		if err != nil {
			return err
		}
		ch.colScratch = cols
		for _, col := range cols {
			ch.accountReplayColumn(g, &prev, col, r)
		}
	}
	return nil
}

// accountReplayColumn is accountColumn for retransmissions: same energy
// integration and transition validation, but the joules land in
// Stats.ReplayEnergy and the profiler's PhaseReplay (keeping the
// payload-phase partition of WireEnergy intact; the caller routes r
// there).
func (ch *Channel) accountReplayColumn(g int, prev *mta.GroupState, col mta.Column, r *route) {
	if r.t != nil {
		r.column(g, prev, col)
	}
	for _, l := range col {
		ch.stats.ReplayEnergy += ch.levelE[l]
	}
	ch.checkColumn(g, prev, col)
}
