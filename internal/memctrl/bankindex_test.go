package memctrl

import (
	"fmt"
	"testing"

	"smores/internal/core"
	"smores/internal/gddr6x"
	"smores/internal/rng"
)

// The oracles below are the scheduler's per-request scans as they stood
// before the bank index: every answer the indexed scheduler gives must
// equal theirs, clock for clock.

// oracleNextIssueReady scans every queued request for its ready clock.
func oracleNextIssueReady(c *Controller) int64 {
	next := int64(-1)
	better := func(t int64) {
		if t >= 0 && (next < 0 || t < next) {
			next = t
		}
	}
	for qi, q := range [2][]*Request{c.readQ, c.writeQ} {
		write := qi == 1
		lat := c.cfg.Timing.RL
		if write {
			lat = c.cfg.Timing.WL
		}
		lat += c.cfg.ExtraCodecLatency
		for _, r := range q {
			if c.dev.RowHit(r.Addr) {
				t := c.dev.ColumnReadyAt(r.Addr.Bank, write)
				if hold := c.busReservedUntil - lat; hold > t {
					t = hold
				}
				better(t)
			} else if c.dev.NeedsPrecharge(r.Addr) {
				better(c.dev.PrechargeReadyAt(r.Addr.Bank))
			} else {
				better(c.dev.ActivateReadyAt(r.Addr.Bank))
			}
		}
	}
	if c.cfg.Pages == ClosedPage {
		for b := 0; b < c.cfg.Timing.Banks; b++ {
			better(c.dev.PrechargeReadyAt(b))
		}
	}
	return next
}

// oraclePickColumn returns the first request of direction k whose column
// command is legal now and whose data would not start in a booked slot.
func oraclePickColumn(c *Controller, k Kind) int {
	q, lat := c.readQ, c.cfg.Timing.RL
	if k == Write {
		q, lat = c.writeQ, c.cfg.Timing.WL
	}
	lat += c.cfg.ExtraCodecLatency
	for i, r := range q {
		ok := c.dev.CanRead(r.Addr, c.clock)
		if k == Write {
			ok = c.dev.CanWrite(r.Addr, c.clock)
		}
		if ok && c.clock+lat >= c.busReservedUntil {
			return i
		}
	}
	return -1
}

// oraclePickPrep returns the request whose PRE or ACT would issue now:
// the first bank (by oldest request) whose oldest request misses and
// whose command is legal.
func oraclePickPrep(c *Controller, k Kind) int {
	q := c.readQ
	if k == Write {
		q = c.writeQ
	}
	var prepped uint64
	for i, r := range q {
		if prepped&(1<<uint(r.Addr.Bank)) != 0 {
			continue
		}
		prepped |= 1 << uint(r.Addr.Bank)
		if c.dev.RowHit(r.Addr) {
			continue
		}
		if c.dev.NeedsPrecharge(r.Addr) {
			if c.dev.CanPrecharge(r.Addr.Bank, c.clock) {
				return i
			}
			continue
		}
		if c.dev.CanActivate(r.Addr.Bank, c.clock) {
			return i
		}
	}
	return -1
}

// oraclePickClosePage returns the first open, prechargeable bank whose
// open row no queued request targets.
func oraclePickClosePage(c *Controller) int {
	if c.cfg.Pages != ClosedPage {
		return -1
	}
	for b := 0; b < c.cfg.Timing.Banks; b++ {
		row, open := c.dev.OpenRow(b)
		if !open || !c.dev.CanPrecharge(b, c.clock) {
			continue
		}
		wanted := false
		for _, q := range [2][]*Request{c.readQ, c.writeQ} {
			for _, r := range q {
				if r.Addr.Bank == b && r.Addr.Row == row {
					wanted = true
				}
			}
		}
		if !wanted {
			return b
		}
	}
	return -1
}

// checkIndex compares the bank index with a recount of both queues and
// every indexed scheduling answer with its oracle.
func checkIndex(c *Controller) error {
	for k, q := range [2][]*Request{c.readQ, c.writeQ} {
		var want bankIndex
		for _, r := range q {
			want.add(r.Addr.Bank, c.dev.RowHit(r.Addr))
		}
		if got := c.ix[k]; got != want {
			return fmt.Errorf("clock %d: %v index drifted: hits %#x/%#x misses %#x/%#x",
				c.clock, Kind(k), got.hits, want.hits, got.misses, want.misses)
		}
	}
	if got, want := c.nextIssueReady(), oracleNextIssueReady(c); got != want {
		return fmt.Errorf("clock %d: nextIssueReady %d, oracle %d", c.clock, got, want)
	}
	for k := Read; k <= Write; k++ {
		if got, want := c.pickColumn(k), oraclePickColumn(c, k); got != want {
			return fmt.Errorf("clock %d: %v column pick %d, oracle %d", c.clock, k, got, want)
		}
		if got, want := c.pickPrep(k), oraclePickPrep(c, k); got != want {
			return fmt.Errorf("clock %d: %v prep pick %d, oracle %d", c.clock, k, got, want)
		}
	}
	if got, want := c.pickClosePage(), oraclePickClosePage(c); got != want {
		return fmt.Errorf("clock %d: close-page pick %d, oracle %d", c.clock, got, want)
	}
	return nil
}

// oraclePolicies are the evaluation matrix's five encoding policies.
var oraclePolicies = [5]struct {
	policy EncodingPolicy
	scheme core.Scheme
}{
	{BaselineMTA, core.Scheme{}},
	{OptimizedMTA, core.Scheme{}},
	{SMOREs, core.Scheme{Specification: core.VariableCode, Detection: core.Exhaustive}},
	{SMOREs, core.Scheme{Specification: core.StaticCode, Detection: core.Exhaustive}},
	{SMOREs, core.Scheme{Specification: core.StaticCode, Detection: core.Conservative}},
}

// oracleConfig decodes a controller configuration from two bytes: policy,
// refresh mode, page policy and codec latency from the first, queue caps
// from the second. The refresh interval is shortened so short runs cross
// refreshes.
func oracleConfig(b0, b1 byte) Config {
	p := oraclePolicies[int(b0)%len(oraclePolicies)]
	cfg := Config{Policy: p.policy, Scheme: p.scheme}
	cfg.Timing = gddr6x.DefaultTiming()
	cfg.Timing.TREFI = 1200
	if b0/5%2 == 1 {
		cfg.Refresh = PerBank
	}
	if b0/10%2 == 1 {
		cfg.Pages = ClosedPage
	}
	cfg.ExtraCodecLatency = int64(b0 / 20 % 2)
	if b1&0x80 == 0 { // small queues; otherwise the defaults
		cfg.ReadQueueCap = 1 + int(b1%8)
		cfg.WriteQueueCap = 2 + int(b1>>3%8)
	}
	return cfg
}

// runIndexOracle drives a controller through the operation stream that
// data encodes and checks the index against the oracles before every
// tick, after every skip and after every Drain. After the two config
// bytes, each pair of bytes is one operation: enqueue a read or a write
// near the current locality base, move the base, tick up to 8 clocks,
// skip toward the next event, or Drain for a bounded span.
func runIndexOracle(t testing.TB, data []byte) {
	if len(data) < 2 {
		return
	}
	cfg := oracleConfig(data[0], data[1])
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("config %+v: %v", cfg, err)
	}
	check := func() {
		if err := checkIndex(c); err != nil {
			t.Fatalf("policy %v/%v refresh %v pages %v extra %d caps %d/%d: %v",
				cfg.Policy, cfg.Scheme, cfg.Refresh, cfg.Pages, cfg.ExtraCodecLatency,
				cfg.ReadQueueCap, cfg.WriteQueueCap, err)
		}
	}
	var base uint64
	var id uint64
	for i := 2; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		switch op % 8 {
		case 0, 1, 2: // read
			id++
			c.Enqueue(&Request{ID: id, Kind: Read, Sector: base + uint64(arg%64)})
		case 3, 4: // write
			id++
			c.Enqueue(&Request{ID: id, Kind: Write, Sector: base + uint64(arg%64)})
		case 5: // new locality: row conflicts and fresh banks
			base = uint64(arg) << 8
		case 6:
			for n := int(arg%8) + 1; n > 0; n-- {
				check()
				c.Tick()
			}
		case 7:
			if arg%2 == 0 {
				// Bounded like a driver's skip: an idle controller's next
				// event is far in the future.
				c.SkipTo(min(c.NextEventClock(), c.Clock()+int64(arg)*8))
			} else {
				c.Drain(int64(arg) * 4)
			}
		}
		check()
	}
	if !c.Drain(1 << 20) {
		t.Fatal("drain timed out")
	}
	check()
	c.Finish()
	if st := c.Stats(); st.BusConflicts != 0 || st.DecisionMismatches != 0 {
		t.Fatalf("invariants broken: %+v", st)
	}
}

// oracleStream builds a random operation stream over config bytes b0, b1
// that leans on ticks and enqueues, so queues fill, drain and refill.
func oracleStream(r *rng.RNG, b0, b1 byte, ops int) []byte {
	data := []byte{b0, b1}
	for i := 0; i < ops; i++ {
		op := byte(r.Intn(256))
		if r.Intn(3) == 0 {
			op = op&^7 | 6 // tick
		}
		data = append(data, op, byte(r.Intn(256)))
	}
	return data
}

// TestSchedulerIndexMatchesOracle runs seeded random streams over every
// combination of the five policies, all-bank/per-bank refresh,
// open/closed pages and extra codec latency 0/1, with small and default
// queue caps, checking the indexed scheduler against the per-request
// oracles at every tick.
func TestSchedulerIndexMatchesOracle(t *testing.T) {
	r := rng.New(12)
	for b0 := 0; b0 < 40; b0++ {
		for _, b1 := range []byte{0x00, 0x0b, 0x2f, 0x80} {
			runIndexOracle(t, oracleStream(r, byte(b0), b1, 1500))
		}
	}
}

// FuzzSchedulerIndex explores operation streams beyond the seeded ones;
// the committed corpus covers each policy, refresh mode and page policy.
func FuzzSchedulerIndex(f *testing.F) {
	r := rng.New(7)
	for b0 := 0; b0 < 40; b0 += 7 {
		f.Add(oracleStream(r, byte(b0), byte(r.Intn(256)), 200))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runIndexOracle(t, data)
	})
}
