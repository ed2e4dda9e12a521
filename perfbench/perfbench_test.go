package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"smores/internal/gpu"
	"smores/internal/report"
	"smores/internal/shard"
	"smores/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 100}, {95, 190}, {100, 200}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	beyond := 0
	for _, x := range xs {
		if x > percentile(xs, 95) {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond p95 of 200, want 10", beyond)
	}
	if xs[0] != 200 {
		t.Error("percentile sorted its input in place")
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 || mean(nil) != 0 {
		t.Error("empty input must summarise to 0")
	}
}

func TestMedianMeanRatio(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := mean([]float64{1, 2, 3, 6}); got != 3 {
		t.Errorf("mean = %g", got)
	}
	if ratio(1, 0) != 0 || ratio(3, 2) != 1.5 {
		t.Error("ratio")
	}
}

func TestSimMetrics(t *testing.T) {
	// Two apps; baseline 1000 fJ/bit, the three SMOREs points save
	// exactly the paper's 28.2/26.8/25.2 %, so the gap is 0.
	const apps = 2
	perBit := make([]float64, policyCount*apps)
	clocks := make([]float64, policyCount*apps)
	savings := []float64{0, 0.1, 0.282, 0.268, 0.252}
	for k, s := range savings {
		for i := 0; i < apps; i++ {
			perBit[k*apps+i] = 1000 * (1 - s)
			clocks[k*apps+i] = 1000
		}
	}
	clocks[2*apps] = 1001 // app 0 slows 0.1 % under exhaustive/variable
	pj, gap, slow := simMetrics(perBit, clocks, apps)
	if math.Abs(pj-0.718) > 1e-12 || math.Abs(gap) > 1e-9 || math.Abs(slow-0.05) > 1e-9 {
		t.Errorf("simMetrics = %g pJ, %g pp, %g %%", pj, gap, slow)
	}
	perBit[2*apps], perBit[2*apps+1] = 700, 700 // variable saves 30 %: 1.8 pp off
	if _, gap, _ := simMetrics(perBit, clocks, apps); math.Abs(gap-0.6) > 1e-9 {
		t.Errorf("gap = %g pp, want 0.6", gap)
	}
}

func TestOpClockWholePasses(t *testing.T) {
	c := newOpClock(0, 7, 10) // time is up at once: finish minOps, rounded to whole passes
	n := 0
	for {
		if _, ok := c.next(); !ok {
			break
		}
		n++
	}
	if n != 14 || c.passes() != 2 {
		t.Errorf("handed out %d ops in %d passes, want 14 in 2", n, c.passes())
	}
}

// tinyShape keeps the decomposition tests to a fraction of a second.
var tinyShape = fleetShape{accesses: 300, channels: 1}

// decomposeTable5 runs every app of the tiny matrix through RunApp and
// through the traced decomposition, BuildPlan(…, 1, …) + one shard.Unit
// (traceOp also checks the recorded run and the bus replay, Equal, and
// errors on a mismatch), and hands each pair to check.
func decomposeTable5(t *testing.T, check func(name string, got, want appOut)) {
	fleet := workload.Fleet()
	for k, spec := range shapeSpecs(tinyShape, 7) {
		for i, p := range fleet {
			s := fleetAppSpec(spec, i, p, nil, nil)
			r, err := report.RunApp(p, s)
			if err != nil {
				t.Fatal(err)
			}
			var led ledger
			var buf []gpu.Access
			got, err := traceOp(workload.OpenGenerator, p, s, tinyShape, 1, &led, &buf)
			if err != nil {
				t.Fatalf("%s policy %d: %v", p.Name, k, err)
			}
			check(fmt.Sprintf("%s policy %d", p.Name, k), got, fromApp(r))
		}
	}
}

// TestDecompositionEqualsRunAppLLCOff: with the LLC off the traced
// decomposition reproduces RunApp's bus stats, gap histograms and DRAM
// traffic exactly.
func TestDecompositionEqualsRunAppLLCOff(t *testing.T) {
	decomposeTable5(t, func(name string, got, want appOut) {
		if !got.bus.Equal(want.bus) || !got.readGaps.Equal(want.readGaps) || !got.writeGaps.Equal(want.writeGaps) ||
			got.reads != want.reads || got.writes != want.writes {
			t.Errorf("%s: decomposed bus stats, gaps or traffic differ from RunApp", name)
		}
	})
}

// TestDecompositionClocksEqualRunAppLLCOff: the decomposition's
// controller stats and driver clock count equal RunApp's. It fails at
// the commit that added it: a shard.Unit's driver runs a finite stream
// and exits one tick after its last progress, RunApp's driver exits on
// its access budget first, so every unit counts one driver clock more
// and about one run in six ends one controller clock later. The same
// holds for report.RunAppMultiChannelSharded(…, 1, …); it is the
// one-channel equivalence the one-engine work has to settle.
func TestDecompositionClocksEqualRunAppLLCOff(t *testing.T) {
	decomposeTable5(t, func(name string, got, want appOut) {
		if !got.ctrl.Equal(want.ctrl) || got.clocks != want.clocks {
			t.Errorf("%s: controller clock %d vs RunApp %d, driver clocks %d vs %d",
				name, got.ctrl.Clock, want.ctrl.Clock, got.clocks, want.clocks)
		}
	})
}

// TestShardedDecompositionEqualsRunner: the traced 8-channel LLC-on
// decomposition reproduces report.RunAppMultiChannelSharded.
func TestShardedDecompositionEqualsRunner(t *testing.T) {
	sh := fleetShape{accesses: 600, channels: 8, llc: true}
	fleet := workload.Fleet()[:6]
	for k, spec := range shapeSpecs(sh, 3) {
		for i, p := range fleet {
			s := fleetAppSpec(spec, i, p, nil, nil)
			r, err := report.RunAppMultiChannelSharded(p, s, sh.channels, report.ShardOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			var led ledger
			var buf []gpu.Access
			got, err := traceOp(workload.OpenGenerator, p, s, sh, 2, &led, &buf)
			if err != nil {
				t.Fatalf("%s policy %d: %v", p.Name, k, err)
			}
			if !got.equal(fromMulti(r)) {
				t.Errorf("%s policy %d: decomposition differs from the sharded runner", p.Name, k)
			}
		}
	}
}

// slowGen delays every access it hands out by a busy wait.
type slowGen struct {
	gpu.Generator
	delay time.Duration
}

func (g slowGen) Next() (gpu.Access, bool) {
	for t := time.Now(); time.Since(t) < g.delay; {
	}
	return g.Generator.Next()
}

// TestPlantedFrontEndDelayIsAttributedToPlan: slowing the generator
// handed to shard.BuildPlan moves shard.plan_s by at least the planted
// time and leaves memctrl's self time alone.
func TestPlantedFrontEndDelayIsAttributedToPlan(t *testing.T) {
	p := workload.Fleet()[0]
	spec := fleetAppSpec(shapeSpecs(tinyShape, 1)[0], 0, p, nil, nil)
	const delay = 20 * time.Microsecond
	planted := time.Duration(tinyShape.accesses) * delay
	measure := func(open opener) map[string]float64 {
		led := &ledger{}
		var buf []gpu.Access
		for rep := 0; rep < 3; rep++ {
			if _, err := traceOp(open, p, spec, tinyShape, 1, led, &buf); err != nil {
				t.Fatal(err)
			}
		}
		m := map[string]float64{}
		led.fill(m, 1)
		return m
	}
	base := measure(workload.OpenGenerator)
	slow := measure(func(p workload.Profile, seed uint64) (gpu.Generator, error) {
		g, err := workload.OpenGenerator(p, seed)
		return slowGen{g, delay}, err
	})
	if d := slow["shard.plan_s"] - base["shard.plan_s"]; d < 3*planted.Seconds() {
		t.Errorf("shard.plan_s grew %.4f s, want at least the planted %.4f s", d, 3*planted.Seconds())
	}
	if d := slow["memctrl.self_s"] - base["memctrl.self_s"]; d > 0.5*3*planted.Seconds() {
		t.Errorf("memctrl.self_s grew %.4f s: the front-end delay leaked into the controller", d)
	}
	if slow["shard.plan_share"] <= base["shard.plan_share"] {
		t.Error("shard.plan_share did not grow")
	}
}

// TestUnitsEqualAcrossWorkerCounts: the traced pool, like
// shard.RunUnits, gives identical results at 1 and several workers.
func TestUnitsEqualAcrossWorkerCounts(t *testing.T) {
	p := workload.Fleet()[3]
	spec := fleetAppSpec(shapeSpecs(sharded8LLCShape, 5)[2], 3, p, nil, nil)
	gen, err := workload.OpenGenerator(p, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	llc := gpu.DefaultLLCConfig()
	plan, err := shard.BuildPlan(gen, 8, 800, &llc)
	if err != nil {
		t.Fatal(err)
	}
	_, one, _, err := runUnits(p, spec, plan, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, many, _, err := runUnits(p, spec, plan, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !one.equal(many) {
		t.Error("unit results depend on the pool's worker count")
	}
}

func TestSessionPoliciesMatchPolicySpecs(t *testing.T) {
	specs := report.PolicySpecs(1, 0, false)
	if len(sessionPolicies) != len(specs) {
		t.Fatalf("%d session policies for %d specs", len(sessionPolicies), len(specs))
	}
	for k, js := range sessionPolicies {
		s, err := js.RunSpec()
		if err != nil {
			t.Fatal(err)
		}
		if s.Policy != specs[k].Policy || s.Scheme != specs[k].Scheme {
			t.Errorf("session policy %d is %v/%+v, PolicySpecs has %v/%+v", k, s.Policy, s.Scheme, specs[k].Policy, specs[k].Scheme)
		}
	}
	if n := len(workload.Fleet()); n%serveApps != 0 {
		t.Errorf("fleet of %d does not split into sessions of %d apps", n, serveApps)
	}
}

func TestMetricsDocInSync(t *testing.T) {
	doc, err := os.ReadFile("METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	if string(doc) != catalogMarkdown() {
		t.Error("METRICS.md is stale: regenerate with go run . --catalog > METRICS.md")
	}
}

// TestBenchmarkJSONMatchesCatalog keeps the repository's BENCHMARK.json
// and the catalog in step: same workloads, metrics, units and bounds.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark directory")
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalog", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v vs catalog %s", i, b.Workloads[i], w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, the catalog %d/%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		e := b.EndToEnd[i]
		if e.Name != m.Name || e.Unit != m.Unit || e.Better != m.Better || e.Bound != m.Bound {
			t.Errorf("end_to_end %d: %+v vs catalog %+v", i, e, m)
		}
	}
	for i, m := range perLayer {
		e := b.PerLayer[i]
		if e.Name != m.Name || e.Unit != m.Unit || e.Better != m.Better {
			t.Errorf("per_layer %d: %+v vs catalog %+v", i, e, m)
		}
	}
	var setupBound float64
	for _, m := range endToEnd {
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range append(endToEnd, perLayer...) {
		if m.Bound > setupBound || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %g (setup_s has %g), better %q", m.Name, m.Bound, setupBound, m.Better)
		}
	}
}
