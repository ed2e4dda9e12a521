package memctrl

import (
	"testing"
	"unsafe"
)

// TestRequestSize pins the Request layout: drivers hold one per DRAM
// access, and a field added without narrowing another pushes it into a
// larger allocation size class (88 → 96 B happened once, unnoticed).
func TestRequestSize(t *testing.T) {
	if n := unsafe.Sizeof(Request{}); n > 72 {
		t.Fatalf("memctrl.Request is %d bytes, want at most 72", n)
	}
}
