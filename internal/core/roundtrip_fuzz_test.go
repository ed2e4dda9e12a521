package core

import (
	"bytes"
	"testing"

	"smores/internal/mta"
	"smores/internal/pam4"
)

// FuzzSparseRoundTrip drives the forward direction of every sparse codec
// in the default family: arbitrary data encoded from an arbitrary
// trailing state must decode back bit-identically, leave encoder and
// decoder state agreeing, and never put an illegal 3ΔV step on an
// encoded data wire (the DBI wire is restriction-exempt, as in GDDR6X).
func FuzzSparseRoundTrip(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07"), uint8(0), uint8(0))
	f.Add([]byte("\xff\xee\xdd\xcc\xbb\xaa\x99\x88\x77\x66\x55\x44\x33\x22\x11\x00"), uint8(3), uint8(0xe4))
	f.Add([]byte("smores!!"), uint8(5), uint8(0xff))
	fam := DefaultFamily()
	lengths := fam.Lengths()
	f.Fuzz(func(t *testing.T, data []byte, lenSel, stSeed uint8) {
		// Trim to a positive whole number of slots.
		data = data[:len(data)/BytesPerSlot*BytesPerSlot]
		if len(data) == 0 {
			return
		}
		c := fam.ByLength(lengths[int(lenSel)%len(lengths)])
		var st mta.GroupState
		for i := range st {
			st[i] = pam4.Level((stSeed >> uint(i%4)) & 3)
		}

		encState := st
		cols, err := c.EncodeGroupBurst(data, &encState)
		if err != nil {
			t.Fatalf("encode rejected %d whole slots: %v", len(data)/BytesPerSlot, err)
		}
		if len(cols) != c.BurstUIs(len(data)) {
			t.Fatalf("encode emitted %d UIs, want %d", len(cols), c.BurstUIs(len(data)))
		}

		// 3ΔV legality on the encoded data wires, including the seam
		// transition out of the pre-burst trailing state.
		prev := st
		for i, col := range cols {
			for w := 0; w < mta.GroupDataWires; w++ {
				if !pam4.TransitionOK(prev[w], col[w]) {
					t.Fatalf("illegal %dΔV step on wire %d at UI %d (prev %v -> %v)",
						pam4.Delta(prev[w], col[w]), w, i, prev[w], col[w])
				}
			}
			prev = mta.GroupState(col)
		}

		decState := st
		back, ok := c.DecodeGroupBurst(nil, cols, len(data), &decState)
		if !ok {
			t.Fatal("decoder rejected the encoder's own output")
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("round trip changed data: got %x want %x", back, data)
		}
		if decState != encState {
			t.Fatalf("states diverged: decoder %v encoder %v", decState, encState)
		}
	})
}
