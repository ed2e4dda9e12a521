package mta

import "smores/internal/pam4"

// A GDDR6X byte group is eight data wires plus one DBI wire. Every command
// clock (4 UIs) the group carries one byte per data wire: the low 7 bits
// MTA-encoded on the wire itself, the MSB multiplexed onto the DBI wire as
// plain PAM4 (two MSBs per DBI symbol).
const (
	// GroupDataWires is the number of MTA-encoded wires per group.
	GroupDataWires = 8
	// GroupWires includes the DBI wire.
	GroupWires = GroupDataWires + 1
	// DBIWire is the index of the DBI wire within a group.
	DBIWire = GroupDataWires
	// GroupBeatBits is the payload of one group beat: 8 wires × 8 bits.
	GroupBeatBits = GroupDataWires * DataBitsPerWireBeat
)

// GroupState is the trailing level of each wire in a group — everything
// the codec needs to encode or decode the next beat. The zero value is a
// fully idle group (all wires at L0).
type GroupState [GroupWires]pam4.Level

// IdleGroupState returns the state of a group parked at the idle level.
func IdleGroupState() GroupState {
	var s GroupState
	for i := range s {
		s[i] = IdleLevel
	}
	return s
}

// Beat is the transmitted form of one group beat: a 4-symbol sequence per
// wire, the DBI wire last.
type Beat [GroupWires]pam4.Seq

// EncodeGroupBeat encodes one byte per data wire. state is mutated to the
// group's new trailing levels.
//
//smores:hotpath
func (c *Codec) EncodeGroupBeat(data [GroupDataWires]byte, state *GroupState) Beat {
	var beat Beat
	var msbs [GroupDataWires]uint8
	for w := 0; w < GroupDataWires; w++ {
		msbs[w] = data[w] >> 7
		beat[w], state[w] = c.EncodeWire(data[w]&0x7f, state[w])
	}
	beat[DBIWire] = packMSBs(msbs)
	state[DBIWire] = beat[DBIWire].Last()
	return beat
}

// AppendGroupBurst encodes a group's share of a burst: data is a
// multiple of GroupDataWires bytes, byte i going to wire i%8, one beat
// per eight bytes. It appends SeqSymbols columns per beat to dst (grown
// as needed) and advances state. The columns equal
// EncodeGroupBeat(...).Columns() beat by beat, which stays the reference
// form; this is the table-driven one the exact-data bus drives.
//
//smores:hotpath
func (c *Codec) AppendGroupBurst(dst []Column, data []byte, state *GroupState) []Column {
	if len(data)%GroupDataWires != 0 {
		panic("mta: group burst length is not a multiple of the group width")
	}
	start := len(dst)
	n := len(data) / GroupDataWires * SeqSymbols
	if cap(dst) < start+n {
		grown := make([]Column, start, start+n)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:start+n]
	for i := 0; i < len(data); i += GroupDataWires {
		bytes := (*[GroupDataWires]byte)(data[i:])
		cols := (*[SeqSymbols]Column)(dst[start+i/GroupDataWires*SeqSymbols:])
		for w := 0; w < GroupDataWires; w++ {
			s := &c.symbols[invertIndex(state[w])][bytes[w]&0x7f]
			cols[0][w], cols[1][w], cols[2][w], cols[3][w] = s[0], s[1], s[2], s[3]
			state[w] = s[SeqSymbols-1]
		}
		// The DBI wire's symbol k is the MSB pair of wires 2k and 2k+1
		// as plain PAM4 (packMSBs).
		for k := 0; k < SeqSymbols; k++ {
			cols[k][DBIWire] = pam4.Level(bytes[2*k]>>7<<1 | bytes[2*k+1]>>7)
		}
		state[DBIWire] = cols[SeqSymbols-1][DBIWire]
	}
	return dst
}

// invertIndex selects the upright (0) or inverted (1) row of the
// codec's symbol table for a wire whose last level is prev.
func invertIndex(prev pam4.Level) int {
	if inverted(prev) {
		return 1
	}
	return 0
}

// DecodeGroupBeat reverses EncodeGroupBeat. state must hold the same
// trailing levels the encoder saw and is advanced on success; on failure
// it is left unchanged and ok is false.
func (c *Codec) DecodeGroupBeat(beat Beat, state *GroupState) (data [GroupDataWires]byte, ok bool) {
	next := *state
	for w := 0; w < GroupDataWires; w++ {
		v, ok := c.DecodeWire(beat[w], state[w])
		if !ok {
			return data, false
		}
		data[w] = v
		next[w] = beat[w].Last()
	}
	msbs, ok := unpackMSBs(beat[DBIWire])
	if !ok {
		return data, false
	}
	for w := 0; w < GroupDataWires; w++ {
		data[w] |= msbs[w] << 7
	}
	next[DBIWire] = beat[DBIWire].Last()
	*state = next
	return data, true
}

// packMSBs maps the eight per-wire MSBs onto the DBI wire's four PAM4
// symbols: symbol i carries the MSBs of wires 2i (high bit) and 2i+1.
func packMSBs(msbs [GroupDataWires]uint8) pam4.Seq {
	var s pam4.Seq
	for i := 0; i < SeqSymbols; i++ {
		s = s.Append(pam4.LevelFromBits(msbs[2*i], msbs[2*i+1]))
	}
	return s
}

// unpackMSBs reverses packMSBs.
func unpackMSBs(s pam4.Seq) (msbs [GroupDataWires]uint8, ok bool) {
	if s.Len() != SeqSymbols {
		return msbs, false
	}
	for i := 0; i < SeqSymbols; i++ {
		msbs[2*i], msbs[2*i+1] = s.At(i).Bits()
	}
	return msbs, true
}
