package core

import (
	"smores/internal/mta"
	"smores/internal/pam4"
)

// The restricted DBI for sparse codes is a *level swap*: if a non-zero
// level occupies the majority of the eight data wires in a UI column, it
// is swapped with the minimum-energy L0 and the DBI wire signals which
// level was swapped (L1, L2, or L0 for "none"). Swapping preserves the
// 2/3-level alphabet, so the maximum-transition guarantee is untouched.

// dbiThreshold is the strict majority bound: swap when more than four of
// the eight data wires carry the level.
const dbiThreshold = mta.GroupDataWires / 2

// dbiPerm is the level permutation for each DBI value, indexed by
// level: the identity for L0 (no swap), then the L0↔L1 and L0↔L2
// swaps. Each is its own inverse. The hot path applies one as a table
// load per wire; L3 maps to itself (pre-shift sparse columns never carry
// it, but the exported helpers accept arbitrary columns).
var dbiPerm = [3][pam4.NumLevels]pam4.Level{
	{pam4.L0, pam4.L1, pam4.L2, pam4.L3},
	{pam4.L1, pam4.L0, pam4.L2, pam4.L3},
	{pam4.L2, pam4.L1, pam4.L0, pam4.L3},
}

// dbiCount packs a column's L1 count (low nibble) and L2 count (high
// nibble) into one byte when summed over the data wires; a count of at
// most eight fits its nibble.
var dbiCount = [pam4.NumLevels]uint8{pam4.L1: 1, pam4.L2: 1 << 4}

// dbiChoice maps a packed count to the DBI value the paper's rule picks.
var dbiChoice = func() (t [256]pam4.Level) {
	for packed := range t {
		n1, n2 := packed&0xf, packed>>4
		switch {
		case n1 > dbiThreshold:
			t[packed] = pam4.L1
		case n2 > dbiThreshold:
			t[packed] = pam4.L2
		}
	}
	return t
}()

// ApplyDBISwap implements the paper's rule on a pre-shift column:
//
//	swap L0↔L1 and set DBI=L1 if N_L1 > 4
//	swap L0↔L2 and set DBI=L2 if N_L2 > 4
//	otherwise DBI=L0
//
// L1 is tested first, as in the paper; both counts cannot exceed four
// simultaneously (they sum to at most eight), so the order only matters
// for documentation. The rule is evaluated without branches: the wires
// add their levels' dbiCount entries, dbiChoice turns the packed count
// into the DBI value, and that value's dbiPerm row remaps every data
// wire (the identity when nothing is swapped).
//
//smores:hotpath
func ApplyDBISwap(col mta.Column) mta.Column {
	dbi := dbiValue(&col)
	col = permuteLevels(col, &dbiPerm[dbi])
	col[mta.DBIWire] = dbi
	return col
}

// dbiValue is the DBI value the rule picks for a column's data wires.
func dbiValue(col *mta.Column) pam4.Level {
	var packed uint8
	for w := 0; w < mta.GroupDataWires; w++ {
		packed += dbiCount[col[w]]
	}
	return dbiChoice[packed]
}

// UndoDBISwap reverses ApplyDBISwap using the DBI wire's (unshifted)
// value. It reports false for a DBI symbol outside {L0, L1, L2}.
func UndoDBISwap(col mta.Column) (mta.Column, bool) {
	dbi := col[mta.DBIWire]
	if int(dbi) >= len(dbiPerm) {
		return col, false
	}
	return permuteLevels(col, &dbiPerm[dbi]), true
}

// permuteLevels remaps the data wires through a level-permutation table
// (the DBI wire is left alone).
func permuteLevels(col mta.Column, m *[pam4.NumLevels]pam4.Level) mta.Column {
	for w := 0; w < mta.GroupDataWires; w++ {
		col[w] = m[col[w]]
	}
	return col
}
