package smores

// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation, plus throughput benchmarks of the core machinery and the
// ablations discussed in the text. Reproduced quantities are attached as
// custom metrics (fJ/bit, saving %, NAND2, gap fractions) so
// `go test -bench=. -benchmem` regenerates the paper's numbers alongside
// the usual ns/op.

import (
	"testing"

	"smores/internal/bus"
	"smores/internal/codec"
	"smores/internal/core"
	"smores/internal/dbi"
	"smores/internal/eyesim"
	"smores/internal/gpu"
	"smores/internal/hwcost"
	"smores/internal/memctrl"
	"smores/internal/mta"
	"smores/internal/pam4"
	"smores/internal/report"
	"smores/internal/rng"
	"smores/internal/sweep"
	"smores/internal/verilog"
	"smores/internal/workload"
)

// benchFleetAccesses keeps fleet-level benches to a few seconds each.
const benchFleetAccesses = 1500

// ---------------------------------------------------------------------
// Figures 1 and 2: the electrical/energy model.

func BenchmarkFig1SymbolEnergy(b *testing.B) {
	var m *pam4.EnergyModel
	for i := 0; i < b.N; i++ {
		var err error
		m, err = pam4.NewEnergyModel(pam4.DefaultDriver(), pam4.CalibratedMeanSymbolEnergy)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.MeanSymbolEnergy(), "fJ/symbol")
	b.ReportMetric(m.PAM4PerBit(), "fJ/bit")
}

func BenchmarkFig2DriverTable(b *testing.B) {
	d := pam4.DefaultDriver()
	var pts [pam4.NumLevels]pam4.LevelPoint
	for i := 0; i < b.N; i++ {
		pts = d.OperatingPoints()
	}
	b.ReportMetric(pts[1].SupplyAmps*1e3, "mA(L1)")
	b.ReportMetric(d.LevelSpacing()*1e3, "mV/step")
}

// ---------------------------------------------------------------------
// Table I / Figure 3: the MTA baseline.

func BenchmarkTable1MTATable(b *testing.B) {
	m := pam4.DefaultEnergyModel()
	var c *mta.Codec
	for i := 0; i < b.N; i++ {
		c = mta.New(m)
	}
	b.ReportMetric(c.ExpectedPerBit(), "fJ/bit") // paper: 574.8
}

func BenchmarkMTAEncodeGroupBeat(b *testing.B) {
	c := mta.New(pam4.DefaultEnergyModel())
	r := rng.New(1)
	var data [mta.GroupDataWires]byte
	r.Fill(data[:])
	st := mta.IdleGroupState()
	b.SetBytes(mta.GroupDataWires)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.EncodeGroupBeat(data, &st)
	}
}

func BenchmarkMTADecodeGroupBeat(b *testing.B) {
	c := mta.New(pam4.DefaultEnergyModel())
	r := rng.New(1)
	var data [mta.GroupDataWires]byte
	r.Fill(data[:])
	encSt := mta.IdleGroupState()
	beat := c.EncodeGroupBeat(data, &encSt)
	b.SetBytes(mta.GroupDataWires)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decSt := mta.IdleGroupState()
		if _, ok := c.DecodeGroupBeat(beat, &decSt); !ok {
			b.Fatal("decode failed")
		}
	}
}

// ---------------------------------------------------------------------
// Table III: restricted code spaces.

func BenchmarkTable3CodeSpace(b *testing.B) {
	var total int
	for i := 0; i < b.N; i++ {
		total = 0
		for n := 2; n <= 8; n++ {
			c, err := codec.Count(codec.EnumConstraint{
				Symbols: n, MaxLevel: pam4.L2, MaxStartLevel: pam4.L2, MaxStep: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			total += c
		}
	}
	b.ReportMetric(float64(total), "sequences")
}

// ---------------------------------------------------------------------
// Table IV / Figure 6: per-encoding energies and the code survey.

func BenchmarkTable4Energy(b *testing.B) {
	m := pam4.DefaultEnergyModel()
	var fam *core.Family
	for i := 0; i < b.N; i++ {
		var err error
		fam, err = core.NewFamily(m, core.DefaultFamilyConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fam.ByLength(3).ExpectedPerBit()+7, "fJ/bit(4b3s+logic)") // paper: 432.3
	b.ReportMetric(fam.ByLength(8).ExpectedPerBit()+7, "fJ/bit(4b8s+logic)") // paper: 319.7
	b.ReportMetric(dbi.NewPAM4Codec(true, m).ExpectedPerBit(), "fJ/bit(PAM4-DBI)")
}

func BenchmarkFig6CodeSurvey(b *testing.B) {
	m := pam4.DefaultEnergyModel()
	var last float64
	for i := 0; i < b.N; i++ {
		for _, lv := range []int{2, 3} {
			for _, withDBI := range []bool{false, true} {
				fam, err := core.NewFamily(m, core.FamilyConfig{DBI: withDBI, Levels: lv})
				if err != nil {
					b.Fatal(err)
				}
				for _, n := range fam.Lengths() {
					last = fam.ByLength(n).ExpectedPerBit()
				}
			}
		}
	}
	b.ReportMetric(last, "fJ/bit(last)")
}

func BenchmarkSparseEncodeGroupBurst(b *testing.B) {
	fam := core.DefaultFamily()
	c := fam.ByLength(3)
	r := rng.New(2)
	data := make([]byte, 16)
	r.Fill(data)
	st := mta.IdleGroupState()
	b.SetBytes(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EncodeGroupBurst(data, &st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparseDecodeGroupBurst(b *testing.B) {
	fam := core.DefaultFamily()
	c := fam.ByLength(3)
	r := rng.New(2)
	data := make([]byte, 16)
	r.Fill(data)
	encSt := mta.IdleGroupState()
	cols, err := c.EncodeGroupBurst(data, &encSt)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, 16)
	b.SetBytes(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := mta.IdleGroupState()
		if _, ok := c.DecodeGroupBurst(buf, cols, 16, &st); !ok {
			b.Fatal("decode failed")
		}
	}
}

// ---------------------------------------------------------------------
// Figure 7: hardware cost.

func BenchmarkFig7HardwareCost(b *testing.B) {
	m := pam4.DefaultEnergyModel()
	var reports []hwcost.Report
	for i := 0; i < b.N; i++ {
		var err error
		reports, err = hwcost.Fig7Reports(m)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range reports {
		if r.Name == "MTA" {
			b.ReportMetric(r.Cost.AreaNAND2, "NAND2(MTA)")
			b.ReportMetric(r.Cost.DelayNAND2, "delays(MTA)")
		}
	}
}

func BenchmarkAblationDBIArea(b *testing.B) {
	m := pam4.DefaultEnergyModel()
	var saving3, saving8 float64
	for i := 0; i < b.N; i++ {
		reports, err := hwcost.Fig7Reports(m)
		if err != nil {
			b.Fatal(err)
		}
		byName := map[string]hwcost.Cost{}
		for _, r := range reports {
			byName[r.Name] = r.Cost
		}
		saving3 = 1 - byName["4b3s-3"].AreaNAND2/byName["4b3s-3/DBI"].AreaNAND2
		saving8 = 1 - byName["4b8s-3"].AreaNAND2/byName["4b8s-3/DBI"].AreaNAND2
	}
	b.ReportMetric(saving3*100, "%area(4b3s)") // paper: 42
	b.ReportMetric(saving8*100, "%area(4b8s)") // paper: 86
}

// ---------------------------------------------------------------------
// Figure 5: idle-gap distributions from the full simulator.

func BenchmarkFig5GapHistogram(b *testing.B) {
	var fr report.FleetResult
	for i := 0; i < b.N; i++ {
		var err error
		fr, err = report.RunFleet(report.RunSpec{
			Policy: memctrl.BaselineMTA, Accesses: benchFleetAccesses, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	gaps, err := fr.AggregateGaps(true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(gaps.Fraction(0)*100, "%gap0") // paper: 59.2
	b.ReportMetric(gaps.Fraction(1)*100, "%gap1") // paper: 29.1
	b.ReportMetric(gaps.OverflowFraction()*100, "%gap>16")
}

// ---------------------------------------------------------------------
// Figure 8 / Table V: energy savings of the SMOREs schemes.

func benchFleet(b *testing.B, policy memctrl.EncodingPolicy, scheme core.Scheme) report.FleetResult {
	b.Helper()
	fr, err := report.RunFleet(report.RunSpec{
		Policy: policy, Scheme: scheme, Accesses: benchFleetAccesses, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return fr
}

func BenchmarkFig8aEnergy(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		base := benchFleet(b, memctrl.BaselineMTA, core.Scheme{})
		variable := benchFleet(b, memctrl.SMOREs,
			core.Scheme{Specification: core.VariableCode, Detection: core.Exhaustive})
		saving = 1 - variable.MeanPerBit()/base.MeanPerBit()
	}
	b.ReportMetric(saving*100, "%saving") // paper: 28.2
}

func BenchmarkFig8bEnergy(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		opt := benchFleet(b, memctrl.OptimizedMTA, core.Scheme{})
		variable := benchFleet(b, memctrl.SMOREs,
			core.Scheme{Specification: core.VariableCode, Detection: core.Exhaustive})
		ratio = variable.MeanPerBit() / opt.MeanPerBit()
	}
	b.ReportMetric(ratio, "x-optimizedMTA")
}

func BenchmarkTable5Schemes(b *testing.B) {
	var sVar, sStat, sCons float64
	for i := 0; i < b.N; i++ {
		base := benchFleet(b, memctrl.BaselineMTA, core.Scheme{})
		v := benchFleet(b, memctrl.SMOREs, core.Scheme{Specification: core.VariableCode, Detection: core.Exhaustive})
		s := benchFleet(b, memctrl.SMOREs, core.Scheme{Specification: core.StaticCode, Detection: core.Exhaustive})
		c := benchFleet(b, memctrl.SMOREs, core.Scheme{Specification: core.StaticCode, Detection: core.Conservative})
		sVar = 1 - v.MeanPerBit()/base.MeanPerBit()
		sStat = 1 - s.MeanPerBit()/base.MeanPerBit()
		sCons = 1 - c.MeanPerBit()/base.MeanPerBit()
	}
	b.ReportMetric(sVar*100, "%variable")      // paper: 28.2
	b.ReportMetric(sStat*100, "%static")       // paper: 26.8
	b.ReportMetric(sCons*100, "%conservative") // paper: 25.2
}

func BenchmarkPerfDegradation(b *testing.B) {
	var degr float64
	for i := 0; i < b.N; i++ {
		base := benchFleet(b, memctrl.BaselineMTA, core.Scheme{})
		v := benchFleet(b, memctrl.SMOREs, core.Scheme{Specification: core.VariableCode, Detection: core.Exhaustive})
		var bc, vc int64
		for j := range base.Results {
			bc += base.Results[j].Clocks
			vc += v.Results[j].Clocks
		}
		degr = float64(vc)/float64(bc) - 1
	}
	b.ReportMetric(degr*100, "%slowdown") // paper: 0.024
}

// ---------------------------------------------------------------------
// Text ablations.

func BenchmarkAblationMTADrop(b *testing.B) {
	m := pam4.DefaultEnergyModel()
	var overhead float64
	for i := 0; i < b.N; i++ {
		std := mta.New(m)
		abl, err := mta.NewVariant(m, mta.DropLowest11)
		if err != nil {
			b.Fatal(err)
		}
		overhead = abl.ExpectedPerBit()/std.ExpectedPerBit() - 1
	}
	b.ReportMetric(overhead*100, "%overhead") // paper: ≈2
}

func BenchmarkAblationExtraCycle(b *testing.B) {
	p, _ := workload.ByName("bfs")
	var degr float64
	for i := 0; i < b.N; i++ {
		base, err := report.RunApp(p, report.RunSpec{
			Policy: memctrl.BaselineMTA, Accesses: benchFleetAccesses, Seed: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		slow, err := report.RunApp(p, report.RunSpec{
			Policy: memctrl.BaselineMTA, Accesses: benchFleetAccesses, Seed: 2,
			ExtraCodecLatency: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		degr = float64(slow.Clocks)/float64(base.Clocks) - 1
	}
	b.ReportMetric(degr*100, "%slowdown") // paper: 0.14
}

func BenchmarkTotalPowerContext(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		base := benchFleet(b, memctrl.BaselineMTA, core.Scheme{})
		share = base.MeanPerBit() / (report.PaperDRAMTotalPJPerBit * 1000)
	}
	b.ReportMetric(share*100, "%ofDRAMpower") // paper: ≈10
}

// ---------------------------------------------------------------------
// Machinery throughput.

func BenchmarkBurstCodecEncode(b *testing.B) {
	c := NewBurstCodec()
	r := rng.New(3)
	data := make([]byte, BurstBytes)
	r.Fill(data)
	b.SetBytes(BurstBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChannelExpectedMode(b *testing.B) {
	ch := bus.New(bus.Config{})
	b.SetBytes(bus.BurstBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ch.SendBurst(nil, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControllerTick offers one bfs access per tick, retrying a
// request the full queue rejected instead of dropping it, so the queues
// cycle as under the GPU driver. Retired requests are recycled, leaving
// the controller's own allocations in the report.
func BenchmarkControllerTick(b *testing.B) {
	ctrl, err := memctrl.New(memctrl.Config{
		Policy: memctrl.SMOREs,
		Scheme: core.Scheme{Specification: core.StaticCode, Detection: core.Exhaustive},
	})
	if err != nil {
		b.Fatal(err)
	}
	var free []*memctrl.Request
	recycle := func(r *memctrl.Request) { free = append(free, r) }
	ctrl.OnReadDone(recycle)
	ctrl.OnWriteDone(recycle)
	p, _ := workload.ByName("bfs")
	gen, err := workload.NewGenerator(p, 4)
	if err != nil {
		b.Fatal(err)
	}
	var pending *memctrl.Request
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pending == nil {
			if a, ok := gen.Next(); ok {
				if n := len(free); n > 0 {
					pending, free = free[n-1], free[:n-1]
				} else {
					pending = new(memctrl.Request)
				}
				*pending = memctrl.Request{ID: uint64(i), Kind: memctrl.Read, Sector: a.Sector}
				if a.Write {
					pending.Kind = memctrl.Write
				}
			}
		}
		if pending != nil && ctrl.Enqueue(pending) {
			pending = nil
		}
		ctrl.Tick()
	}
}

func BenchmarkLLCAccess(b *testing.B) {
	llc, err := gpu.NewLLC(gpu.DefaultLLCConfig())
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		llc.Access(uint64(r.Intn(1<<20)), i%4 == 0)
	}
}

func BenchmarkQuineMcCluskey7Input(b *testing.B) {
	m := pam4.DefaultEnergyModel()
	c := mta.New(m)
	for i := 0; i < b.N; i++ {
		if _, err := hwcost.MTAEncoderCost(c); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Extension subsystems.

func BenchmarkVerilogEmitStandardSet(b *testing.B) {
	m := pam4.DefaultEnergyModel()
	fam, err := core.NewFamily(m, core.DefaultFamilyConfig())
	if err != nil {
		b.Fatal(err)
	}
	var books []*codec.Codebook
	for _, n := range fam.Lengths() {
		books = append(books, fam.ByLength(n).Book())
	}
	c := mta.New(m)
	var chars int
	for i := 0; i < b.N; i++ {
		chars = 0
		for _, mod := range verilog.StandardSet(c, books) {
			chars += len(mod.Emit())
		}
	}
	b.ReportMetric(float64(chars), "chars")
}

func BenchmarkEyeAnalysis(b *testing.B) {
	a, err := eyesim.New(eyesim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	c := mta.New(pam4.DefaultEnergyModel())
	r := rng.New(9)
	st := mta.IdleGroupState()
	var cols []mta.Column
	for i := 0; i < 500; i++ {
		var data [mta.GroupDataWires]byte
		r.Fill(data[:])
		bc := c.EncodeGroupBeat(data, &st).Columns()
		cols = append(cols, bc[:]...)
	}
	b.ResetTimer()
	var rep eyesim.Report
	for i := 0; i < b.N; i++ {
		rep = a.Analyze(mta.IdleGroupState(), cols)
	}
	b.ReportMetric(rep.WorstEyeMV, "mV(worst-eye)")
}

func BenchmarkErrorDetectionStudy(b *testing.B) {
	fam := core.DefaultFamily()
	var rate float64
	for i := 0; i < b.N; i++ {
		rate = fam.ByLength(3).Book().SingleSymbolErrors().DetectionRate()
	}
	b.ReportMetric(rate*100, "%detected(4b3s)")
}

func BenchmarkMultiChannel(b *testing.B) {
	p, _ := workload.ByName("bert")
	var mr report.MultiResult
	for i := 0; i < b.N; i++ {
		var err error
		mr, err = report.RunAppMultiChannel(p, report.RunSpec{
			Policy:   memctrl.SMOREs,
			Scheme:   core.Scheme{Specification: core.StaticCode, Detection: core.Exhaustive},
			Accesses: 4000, Seed: 3,
		}, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mr.PerBit, "fJ/bit")
}

// BenchmarkMultiChannelSharded is the same workload on the
// shard-per-goroutine engine with a saturated pool — the headline
// speedup over BenchmarkMultiChannel's lockstep interleaver.
func BenchmarkMultiChannelSharded(b *testing.B) {
	p, _ := workload.ByName("bert")
	var mr report.MultiResult
	for i := 0; i < b.N; i++ {
		var err error
		mr, err = report.RunAppMultiChannelSharded(p, report.RunSpec{
			Policy:   memctrl.SMOREs,
			Scheme:   core.Scheme{Specification: core.StaticCode, Detection: core.Exhaustive},
			Accesses: 4000, Seed: 3,
		}, 4, report.ShardOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mr.PerBit, "fJ/bit")
}

func BenchmarkAblationClosedPage(b *testing.B) {
	p, _ := workload.ByName("srad")
	var openSave, closedSave float64
	for i := 0; i < b.N; i++ {
		run := func(pages memctrl.PagePolicy, policy memctrl.EncodingPolicy) float64 {
			r, err := report.RunApp(p, report.RunSpec{
				Policy: policy, Pages: pages, Accesses: 3000, Seed: 4,
				Scheme: core.Scheme{Specification: core.StaticCode, Detection: core.Exhaustive},
			})
			if err != nil {
				b.Fatal(err)
			}
			return r.PerBit
		}
		openSave = 1 - run(memctrl.OpenPage, memctrl.SMOREs)/run(memctrl.OpenPage, memctrl.BaselineMTA)
		closedSave = 1 - run(memctrl.ClosedPage, memctrl.SMOREs)/run(memctrl.ClosedPage, memctrl.BaselineMTA)
	}
	b.ReportMetric(openSave*100, "%save(open)")
	b.ReportMetric(closedSave*100, "%save(closed)")
}

func BenchmarkAblationPerBankRefresh(b *testing.B) {
	// A dense app whose own gaps are small, so the refresh shadow is the
	// worst observed gap.
	p, _ := workload.ByName("bert")
	var abGap, pbGap float64
	for i := 0; i < b.N; i++ {
		run := func(pol memctrl.RefreshPolicy) float64 {
			ctrl, err := memctrl.New(memctrl.Config{Policy: memctrl.BaselineMTA, Refresh: pol})
			if err != nil {
				b.Fatal(err)
			}
			gen, err := workload.NewGenerator(p, 6)
			if err != nil {
				b.Fatal(err)
			}
			drv, err := gpu.NewDriver(gpu.DriverConfig{MSHRs: p.MSHRs, MaxAccesses: 12000}, ctrl, gen)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := drv.Run(); err != nil {
				b.Fatal(err)
			}
			return float64(ctrl.Stats().MaxGapClocks)
		}
		abGap = run(memctrl.AllBank)
		pbGap = run(memctrl.PerBank)
	}
	b.ReportMetric(abGap, "worst-gap(refab)")
	b.ReportMetric(pbGap, "worst-gap(refpb)")
}

func BenchmarkSweepConservativeWindow(b *testing.B) {
	var pts []sweep.Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = sweep.ConservativeWindow(sweep.Config{Accesses: 800, Seed: 1}, []int{4, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[len(pts)-1].Saving*100, "%saving(w=8)")
}
