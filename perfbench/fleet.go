package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"time"

	"smores/internal/bus"
	"smores/internal/memctrl"
	"smores/internal/obs"
	"smores/internal/report"
	"smores/internal/stats"
	"smores/internal/workload"
)

// fleetShape fixes one fleet workload's inputs. An op is one app under
// one policy; a pass is the whole 42-app x 5-policy matrix in
// report.RunFleetOpts order (policy-major).
type fleetShape struct {
	// accesses is the per-app LLC-level access budget.
	accesses int64
	llc      bool
	// channels is 1 for the single-channel runner (report.RunApp, the
	// loop body of RunFleetOpts) and 8 for the sharded multi-channel one.
	channels int
	// exact puts real symbol data on the wires and attaches an energy
	// profile and a counter registry, one of each per policy fleet.
	exact bool
}

// The access budgets keep a pass to one or two host seconds on a 2-CPU
// VM (symbol-exact encoding is about 5x slower), so a 20 s run repeats
// every op about ten times.
var (
	table5Shape        = fleetShape{accesses: 2000, channels: 1}
	exactProfiledShape = fleetShape{accesses: 1000, channels: 1, exact: true}
	sharded8LLCShape   = fleetShape{accesses: 6000, channels: 8, llc: true}
)

func runTable5(c runConfig) (*result, error)        { return runFleet(c, table5Shape) }
func runExactProfiled(c runConfig) (*result, error) { return runFleet(c, exactProfiledShape) }
func runSharded8LLC(c runConfig) (*result, error)   { return runFleet(c, sharded8LLCShape) }

// appOut is the deterministic part of one op's result: what the digest
// hashes and what repeated or re-derived runs must reproduce exactly.
type appOut struct {
	bus                 bus.Stats
	ctrl                memctrl.Stats
	clocks              int64
	reads, writes       int64
	readGaps, writeGaps *stats.Histogram
}

func fromApp(r report.AppResult) appOut {
	return appOut{r.Bus, r.Ctrl, r.Clocks, r.Reads, r.Writes, r.ReadGaps, r.WriteGaps}
}

func fromMulti(r report.MultiResult) appOut {
	return appOut{r.Bus, r.Ctrl, r.Clocks, r.Reads, r.Writes, r.ReadGaps, r.WriteGaps}
}

func (a appOut) equal(b appOut) bool {
	if a.readGaps == nil || a.writeGaps == nil || b.readGaps == nil || b.writeGaps == nil {
		return false // an op that failed has no histograms
	}
	return a.bus.Equal(b.bus) && a.ctrl.Equal(b.ctrl) &&
		a.clocks == b.clocks && a.reads == b.reads && a.writes == b.writes &&
		a.readGaps.Equal(b.readGaps) && a.writeGaps.Equal(b.writeGaps)
}

// hashInto writes the op's energies, controller counters, clocks, DRAM
// traffic and gap histograms.
func (a appOut) hashInto(h hash.Hash) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	s := a.bus
	for _, f := range []float64{s.DataBits, s.WireEnergy, s.PostambleEnergy, s.LogicEnergy, s.ReplayEnergy} {
		put(math.Float64bits(f))
	}
	for _, v := range []int64{s.MTABursts, s.SparseBursts, s.ReplayBursts, s.Postambles, s.BusyUIs, s.IdleUIs, s.Violations,
		a.ctrl.Clock, a.ctrl.ReadsServed, a.ctrl.WritesServed, a.ctrl.ReadLatencySum, a.ctrl.SparseReads, a.ctrl.SparseWrites,
		a.ctrl.MaxGapClocks, a.clocks, a.reads, a.writes} {
		put(uint64(v))
	}
	for _, g := range []*stats.Histogram{a.readGaps, a.writeGaps} {
		put(uint64(g.Buckets()))
		for i := 0; i < g.Buckets(); i++ {
			put(uint64(g.Count(i)))
		}
	}
}

// fleetDigest hashes one pass's op outputs in op order.
func fleetDigest(outs []appOut) string {
	h := sha256.New()
	for _, o := range outs {
		o.hashInto(h)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Table V's published savings, in PolicySpecs order after the two
// baselines.
var paperSavings = []float64{report.PaperVariableSaving, report.PaperStaticSaving, report.PaperConservSaving}

// simMetrics derives the simulated outputs from one pass's per-app fJ
// per bit and clocks, indexed [policy*apps + app]: the SMOREs
// exhaustive/variable fleet mean in pJ/bit, the mean distance in
// percentage points of the three SMOREs savings from Table V, and the
// fleet-mean simulated slowdown of exhaustive/variable over baseline-mta
// in percent.
func simMetrics(perBit, clocks []float64, apps int) (pjPerBit, gapPP, slowdownPct float64) {
	fleetMean := func(k int) float64 { return mean(perBit[k*apps : (k+1)*apps]) }
	base := fleetMean(0)
	for j, paper := range paperSavings {
		saving := (1 - fleetMean(2+j)/base) * 100
		gapPP += math.Abs(saving-paper*100) / float64(len(paperSavings))
	}
	slow := make([]float64, apps)
	for i := range slow {
		slow[i] = (ratio(clocks[2*apps+i], clocks[i]) - 1) * 100
	}
	return fleetMean(2) / 1000, gapPP, mean(slow)
}

// passSim applies simMetrics to a pass of op outputs.
func passSim(outs []appOut, apps int) (pjPerBit, gapPP, slowdownPct float64) {
	perBit := make([]float64, len(outs))
	clocks := make([]float64, len(outs))
	for i, o := range outs {
		perBit[i] = o.bus.PerBit()
		clocks[i] = float64(o.clocks)
	}
	return simMetrics(perBit, clocks, apps)
}

// fleetAppSpec is report's per-app spec for fleet position i: the
// decorrelated app seed and, with a registry, the app label — what
// RunFleetOpts and RunFleetMultiChannel derive internally.
func fleetAppSpec(spec report.RunSpec, i int, p workload.Profile, prof *obs.Profile, reg *obs.Registry) report.RunSpec {
	s := spec
	s.Seed = report.DecorrelateSeed(spec.Seed, i)
	s.Profile = prof
	if reg != nil {
		s.Obs = reg
		s.ObsLabels = []obs.Label{obs.L("app", p.Name)}
	}
	return s
}

// shapeSpecs is the policy matrix with the shape's data mode applied.
func shapeSpecs(sh fleetShape, seed uint64) []report.RunSpec {
	specs := report.PolicySpecs(sh.accesses, seed, sh.llc)
	for k := range specs {
		specs[k].ExactData = sh.exact
	}
	return specs
}

// fleetObs returns a fresh profile and registry for one policy fleet of
// an exact shape (nil, nil otherwise).
func fleetObs(sh fleetShape) (*obs.Profile, *obs.Registry) {
	if !sh.exact {
		return nil, nil
	}
	return obs.NewProfile(), obs.NewRegistry()
}

// runFleet runs a fleet workload: untraced, it times whole passes of
// ops through the public runners; traced, it decomposes every op into
// layer calls (trace.go).
func runFleet(c runConfig, sh fleetShape) (*result, error) {
	build := func() ([]workload.Profile, func(), error) {
		f, err := buildSimulator()
		return f, func() {}, err
	}
	fleet, _, firstSetup, err := setUp(build)
	if err != nil {
		return nil, err
	}
	if c.trace {
		return traceFleet(c, sh, fleet)
	}
	res := newResult()
	specs := shapeSpecs(sh, c.seed)
	apps := len(fleet)
	nOps := len(specs) * apps
	ref := make([]appOut, nOps)
	attempts := make([]int, nOps)
	best := make([]float64, nOps) // each distinct op's fastest repeat, ms
	var prof *obs.Profile
	var reg *obs.Registry

	clock := newOpClock(c.seconds, nOps, nOps)
	ms0 := readMemStats()
	for {
		n, ok := clock.next()
		if !ok {
			break
		}
		idx := n % nOps
		k, i := idx/apps, idx%apps
		if i == 0 {
			prof, reg = fleetObs(sh)
		}
		spec := fleetAppSpec(specs[k], i, fleet[i], prof, reg)
		before := prof.TotalEnergy()
		t0 := time.Now()
		out, err := runOp(fleet[i], spec, sh, c.workers)
		d := time.Since(t0).Seconds() * 1000
		if n < nOps || d < best[idx] {
			best[idx] = d
		}
		res.attempted++
		attempts[idx]++
		if n < nOps {
			ref[idx] = out
		}
		switch {
		case err != nil:
			res.fail("op %d (%s, policy %d): %v", n, fleet[i].Name, k, err)
		case prof != nil && !reconciles(prof.TotalEnergy()-before, out.bus.TotalEnergy()):
			res.fail("op %d (%s, policy %d): profile delta %.6g fJ vs bus total %.6g fJ",
				n, fleet[i].Name, k, prof.TotalEnergy()-before, out.bus.TotalEnergy())
		case !out.equal(ref[idx]):
			res.fail("op %d (%s, policy %d): differs from the first pass", n, fleet[i].Name, k)
		}
	}
	ms1 := readMemStats()
	res.passes = clock.passes()

	// Every distinct op is checked once more against the fleet entry
	// point it stands for, at one worker (untimed).
	for k, spec := range specs {
		got, err := runEntryPoint(spec, sh, fleet)
		if err != nil {
			res.fail("fleet entry point, policy %d: %v", k, err)
			continue
		}
		for i, o := range got {
			if idx := k*apps + i; !o.equal(ref[idx]) {
				res.failN(attempts[idx], "%s under policy %d differs from the fleet entry point at 1 worker", fleet[i].Name, k)
			}
		}
	}

	if res.metrics["setup_s"], err = setupMedian(build, firstSetup, setupWindow); err != nil {
		return nil, err
	}
	accesses := float64(int64(res.attempted) * sh.accesses)
	b, cnt := allocDelta(ms0, ms1)
	setOpMetrics(res.metrics, best)
	var bestSeconds float64
	for _, ms := range best {
		bestSeconds += ms / 1000
	}
	res.metrics["accesses_per_s"] = ratio(float64(int64(nOps)*sh.accesses), bestSeconds)
	res.metrics["alloc_bytes_per_access"] = ratio(b, accesses)
	res.metrics["allocs_per_access"] = ratio(cnt, accesses)
	res.metrics["smores_pj_per_bit"], res.metrics["paper_gap_pp"], _ = passSim(ref, apps)
	res.digest = fleetDigest(ref)
	return res, nil
}

// setOpMetrics derives the op latency metrics from each distinct op's
// fastest repeat in the run (ms): host interference only ever slows an
// op, so the fastest repeat is the steadiest estimate of its cost.
func setOpMetrics(m map[string]float64, best []float64) {
	m["op_p50_ms"] = percentile(best, 50)
	m["op_p95_ms"] = percentile(best, 95)
}

// reconciles is the profiler conservation check: attributed energy
// equals the bus total to float-summation precision.
func reconciles(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(want), 1)
}

// runOp is one timed op through the public per-app runner.
func runOp(p workload.Profile, spec report.RunSpec, sh fleetShape, workers int) (appOut, error) {
	if sh.channels == 1 {
		r, err := report.RunApp(p, spec)
		return fromApp(r), err
	}
	r, err := report.RunAppMultiChannelSharded(p, spec, sh.channels, report.ShardOptions{Workers: workers})
	return fromMulti(r), err
}

// runEntryPoint runs one policy's whole fleet through the workload's
// fleet entry point at one worker: report.RunFleetOpts (with the
// profile and registry attached through FleetOptions.Obs on the exact
// shape) or report.RunFleetMultiChannel.
func runEntryPoint(spec report.RunSpec, sh fleetShape, fleet []workload.Profile) ([]appOut, error) {
	var outs []appOut
	if sh.channels == 1 {
		prof, reg := fleetObs(sh)
		spec.Profile = prof
		fr, err := report.RunFleetOpts(spec, report.FleetOptions{Workers: 1, Obs: reg})
		if err != nil {
			return nil, err
		}
		for _, r := range fr.Results {
			outs = append(outs, fromApp(r))
		}
	} else {
		mfr, err := report.RunFleetMultiChannel(spec, sh.channels, report.ShardOptions{Workers: 1})
		if err != nil {
			return nil, err
		}
		for _, r := range mfr.Results {
			outs = append(outs, fromMulti(r))
		}
	}
	if len(outs) != len(fleet) {
		return nil, fmt.Errorf("%d results for %d apps", len(outs), len(fleet))
	}
	return outs, nil
}
