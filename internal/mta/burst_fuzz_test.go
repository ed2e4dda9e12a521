package mta

import (
	"slices"
	"testing"

	"smores/internal/pam4"
)

// FuzzMTAColumns checks the table-driven AppendGroupBurst against the
// reference path, EncodeGroupBeat(...).Columns() beat by beat, from an
// arbitrary trailing state (every wire may sit at L3, which inverts its
// next sequence). Both must emit the same columns and leave the same
// state. The burst is appended behind a dirty prefix of dst, which must
// survive untouched, and then re-encoded into the spare capacity of the
// first result, whose stale columns must all be overwritten.
func FuzzMTAColumns(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"), uint32(0), uint8(0))
	f.Add([]byte("\xff\xfe\x80\x7f\x55\xaa\x01\x00smores!?"), uint32(0x3ffff), uint8(3))
	f.Add([]byte("\x80\x80\x80\x80\x80\x80\x80\x80"), uint32(0x2d8e4), uint8(0x2a))
	f.Add([]byte("one beat plus trailing"), uint32(0x1b1b1), uint8(0xff))
	c := New(pam4.DefaultEnergyModel())
	f.Fuzz(func(t *testing.T, raw []byte, stBits uint32, prefix uint8) {
		beats := min(len(raw)/GroupDataWires, 8)
		if beats == 0 {
			return
		}
		data := raw[:beats*GroupDataWires]
		var st GroupState
		for w := range st {
			st[w] = pam4.Level(stBits >> (2 * uint(w)) & 3)
		}

		wantState := st
		var want []Column
		for b := 0; b < beats; b++ {
			var bytes8 [GroupDataWires]byte
			copy(bytes8[:], data[b*GroupDataWires:])
			cols := c.EncodeGroupBeat(bytes8, &wantState).Columns()
			want = append(want, cols[:]...)
		}

		n := int(prefix % 8)
		dst := make([]Column, n, n+int(prefix/8%4)*SeqSymbols)
		for i := range dst {
			dst[i] = UniformColumn(pam4.Level(i % pam4.NumLevels))
		}
		dirty := slices.Clone(dst)
		got := st
		out := c.AppendGroupBurst(dst, data, &got)
		if !slices.Equal(out[:n], dirty) {
			t.Fatalf("prefix overwritten: got %v want %v", out[:n], dirty)
		}
		if !slices.Equal(out[n:], want) {
			t.Fatalf("columns differ from EncodeGroupBeat (state %v, data %x):\n got %v\nwant %v", st, data, out[n:], want)
		}
		if got != wantState {
			t.Fatalf("final state %v, EncodeGroupBeat left %v", got, wantState)
		}

		// Re-encode over the first result's stale columns.
		for i := n; i < len(out); i++ {
			out[i] = UniformColumn(pam4.L3)
		}
		again := st
		out = c.AppendGroupBurst(out[:n], data, &again)
		if !slices.Equal(out[n:], want) || again != wantState {
			t.Fatalf("re-encode into a reused buffer differs: got %v want %v", out[n:], want)
		}
	})
}

// TestAppendGroupBurstRejectsPartialBeat checks that a chunk that is
// not a whole number of beats panics instead of dropping bytes.
func TestAppendGroupBurstRejectsPartialBeat(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a 12-byte chunk encoded without a panic")
		}
	}()
	st := IdleGroupState()
	New(pam4.DefaultEnergyModel()).AppendGroupBurst(nil, make([]byte, 12), &st)
}
