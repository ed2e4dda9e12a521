package core

import (
	"testing"

	"smores/internal/mta"
	"smores/internal/pam4"
)

// applyDBISwapOracle is the restricted DBI rule as a plain count and
// switch, with its own swap tables.
func applyDBISwapOracle(col mta.Column) mta.Column {
	swap01 := [pam4.NumLevels]pam4.Level{pam4.L1, pam4.L0, pam4.L2, pam4.L3}
	swap02 := [pam4.NumLevels]pam4.Level{pam4.L2, pam4.L1, pam4.L0, pam4.L3}
	n1, n2 := 0, 0
	for w := 0; w < mta.GroupDataWires; w++ {
		switch col[w] {
		case pam4.L1:
			n1++
		case pam4.L2:
			n2++
		}
	}
	switch {
	case n1 > dbiThreshold:
		for w := 0; w < mta.GroupDataWires; w++ {
			col[w] = swap01[col[w]]
		}
		col[mta.DBIWire] = pam4.L1
	case n2 > dbiThreshold:
		for w := 0; w < mta.GroupDataWires; w++ {
			col[w] = swap02[col[w]]
		}
		col[mta.DBIWire] = pam4.L2
	default:
		col[mta.DBIWire] = pam4.L0
	}
	return col
}

// TestApplyDBISwapMatchesOracle compares the kernel with the oracle on
// every data-wire pattern over all four levels (L3 included, which no
// pre-shift sparse column carries) and every incoming DBI value, and
// checks that UndoDBISwap restores each pattern's data wires and
// rejects the DBI value no encoder sends.
func TestApplyDBISwapMatchesOracle(t *testing.T) {
	const patterns = 1 << (2 * mta.GroupDataWires)
	swaps := 0
	for p := 0; p < patterns; p++ {
		var col mta.Column
		for w := 0; w < mta.GroupDataWires; w++ {
			col[w] = pam4.Level(p >> (2 * w) & 3)
		}
		for dbi := pam4.L0; dbi <= pam4.L3; dbi++ {
			col[mta.DBIWire] = dbi
			got, want := ApplyDBISwap(col), applyDBISwapOracle(col)
			if got != want {
				t.Fatalf("column %v: ApplyDBISwap = %v, oracle %v", col, got, want)
			}
			back, ok := UndoDBISwap(got)
			if !ok {
				t.Fatalf("column %v: UndoDBISwap rejected DBI %v", col, got[mta.DBIWire])
			}
			back[mta.DBIWire] = dbi
			if back != col {
				t.Fatalf("column %v: round trip gave %v", col, back)
			}
		}
		if ApplyDBISwap(col)[mta.DBIWire] != pam4.L0 {
			swaps++
		}
	}
	if _, ok := UndoDBISwap(mta.UniformColumn(pam4.L3)); ok {
		t.Fatal("UndoDBISwap accepted DBI L3, which no encoder sends")
	}
	// Columns with five or more wires at L1 (or at L2): 2 × Σ_{k≥5}
	// C(8,k)·3^(8−k).
	if want := 2 * (56*27 + 28*9 + 8*3 + 1); swaps != want {
		t.Fatalf("%d patterns swapped, want %d", swaps, want)
	}
}
