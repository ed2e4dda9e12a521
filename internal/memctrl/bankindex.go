package memctrl

// bankIndex summarizes one request queue per bank. A queued request's
// scheduling state depends only on its bank and on whether its row is
// the bank's open row, so per-bank counts answer the scheduler's
// readiness questions — which banks hold a queued row hit, which need a
// PRE or ACT — in O(banks) instead of a scan over the queue. The
// controller updates the index on Enqueue, on column issue and on
// ACT/PRE; the differential oracle in bankindex_test.go holds every
// indexed answer to the per-request scans it replaced.
type bankIndex struct {
	// hits has bit b set while at least one queued request targets bank
	// b's open row; misses while at least one targets another row (or
	// the bank is closed).
	hits, misses uint64
	n            [64]int32 // queued requests per bank
	nHit         [64]int32 // of those, requests to the bank's open row
}

// add records a newly queued request to bank b.
func (x *bankIndex) add(b int, hit bool) {
	x.n[b]++
	if hit {
		x.nHit[b]++
	}
	x.sync(b)
}

// removeHit records the issue of a queued row hit to bank b (column
// commands only ever issue to the open row).
func (x *bankIndex) removeHit(b int) {
	x.n[b]--
	x.nHit[b]--
	x.sync(b)
}

// opened recounts bank b's row hits after an ACTIVATE opened row.
func (x *bankIndex) opened(b int, row uint32, q []*Request) {
	var hits int32
	if x.n[b] > 0 {
		for _, r := range q {
			if r.Addr.Bank == b && r.Addr.Row == row {
				hits++
			}
		}
	}
	x.nHit[b] = hits
	x.sync(b)
}

// closed records a PRECHARGE of bank b: no request can hit a closed bank.
func (x *bankIndex) closed(b int) {
	x.nHit[b] = 0
	x.sync(b)
}

func (x *bankIndex) sync(b int) {
	bit := uint64(1) << uint(b)
	x.hits &^= bit
	x.misses &^= bit
	if x.nHit[b] > 0 {
		x.hits |= bit
	}
	if x.n[b] > x.nHit[b] {
		x.misses |= bit
	}
}
