package core

import (
	"bytes"
	"testing"

	"smores/internal/mta"
	"smores/internal/pam4"
)

// FuzzDecodeGroupBurst throws arbitrary column streams at the sparse
// decoder: it must never panic, and anything it accepts must re-encode to
// the exact same columns from the same starting state. The decode
// appends to a caller buffer holding a prefix, which must survive, and a
// second decode into the dirty buffer must give the same bytes.
func FuzzDecodeGroupBurst(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, uint8(0))
	f.Add([]byte{255, 254, 1, 9, 17, 33}, uint8(3))
	fam := DefaultFamily()
	f.Fuzz(func(t *testing.T, raw []byte, stSeed uint8) {
		c := fam.Shortest()
		n := c.BurstUIs(16)
		if len(raw) < 2*n {
			return
		}
		var st mta.GroupState
		for i := range st {
			st[i] = pam4.Level((stSeed >> uint(i%4)) & 3)
		}
		cols := make([]mta.Column, n)
		for i := range cols {
			for w := range cols[i] {
				cols[i][w] = pam4.Level(raw[(i*mta.GroupWires+w)%len(raw)] & 3)
			}
		}
		prefix := raw[:int(stSeed)%4]
		decState := st
		out, ok := c.DecodeGroupBurst(append([]byte(nil), prefix...), cols, 16, &decState)
		if !ok {
			return
		}
		if len(out) != len(prefix)+16 || !bytes.Equal(out[:len(prefix)], prefix) {
			t.Fatalf("decode into a %d-byte prefix returned %d bytes or clobbered the prefix", len(prefix), len(out))
		}
		data := append([]byte(nil), out[len(prefix):]...)
		again := st
		reused, ok := c.DecodeGroupBurst(out[:len(prefix)], cols, 16, &again)
		if !ok || !bytes.Equal(reused[len(prefix):], data) {
			t.Fatal("decoding into a reused buffer changed the result")
		}
		encState := st
		back, err := c.EncodeGroupBurst(data, &encState)
		if err != nil {
			t.Fatal(err)
		}
		for i := range back {
			if back[i] != cols[i] {
				t.Fatalf("accepted columns do not re-encode identically at UI %d", i)
			}
		}
		if encState != decState {
			t.Fatal("states diverged")
		}
	})
}
