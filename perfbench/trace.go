package main

// The traced run. Each op of a fleet workload is decomposed into calls
// to the layers' public functions, each timed from here:
//
//	workload.OpenGenerator drained alone         -> workload.gen
//	gpu.LLC.Access over the drained stream       -> gpu.llc
//	OpenGenerator + shard.BuildPlan              -> shard.plan (front end)
//	memctrl.New + shard.NewUnit                  -> construction (unattributed)
//	shard.Unit.Run on a pool, recording off      -> shard pool; memctrl + bus + obs inline
//	the same units without the registry          -> obs.mirror (difference)
//	recorded units, replayed through bus.New     -> bus (profile off)
//	the replay again with an obs.Profile         -> obs.profile (difference)
//	bus/memctrl Stats.Merge, histogram merges,
//	FleetResult.AggregateGaps and MeanPerBit      -> report.merge
//
// memctrl's self time is the unit time less what the replays and the
// registry difference attribute to bus and obs. The op path is what an
// untraced op runs: plan, construction, the units (as summed busy time)
// and the merge; unattributed_s is the op path less the layer self
// times. Every decomposed op is checked: the recorded run and the
// registry-free run reproduce the timed run, the replay reproduces the
// live bus stats (Equal), the profile reconciles with the replayed bus
// energy, and the op's output joins the digest. On sharded8_llc the
// digest equals the untraced run's for the same seed; on the
// single-channel workloads the decomposition runs the sharded engine
// where the untraced ops run RunApp, and the two differ by one clock at
// the end of a run (TestDecompositionClocksEqualRunAppLLCOff), so there
// the digests differ.

import (
	"fmt"
	"time"

	"smores/internal/bus"
	"smores/internal/gpu"
	"smores/internal/memctrl"
	"smores/internal/obs"
	"smores/internal/report"
	"smores/internal/shard"
	"smores/internal/workload"
)

// ledger accumulates one traced run. Times are host seconds.
type ledger struct {
	opPath, plan, gen, llc     float64
	unitBusy, unitWall         float64
	bus, profile, mirror       float64
	merge                      float64
	accesses, llcAccesses      int64
	unitMs, maxOverMean        []float64
	liveBus                    bus.Stats
	ctrl                       memctrl.Stats
	clocks, stall, unitClocks  int64
	acts, columns              float64
	llcStats                   gpu.LLCStats
	replayedBursts, profBursts int64
}

// controllerConfig mirrors report's RunSpec → memctrl.Config mapping for
// the fields the benchmark's specs set.
func controllerConfig(s report.RunSpec, channel int) memctrl.Config {
	cfg := memctrl.Config{
		Policy:            s.Policy,
		Scheme:            s.Scheme,
		Pages:             s.Pages,
		ExtraCodecLatency: s.ExtraCodecLatency,
		Obs:               s.Obs,
		ObsLabels:         s.ObsLabels,
		Channel:           channel,
	}
	cfg.Bus.Profile = s.Profile
	cfg.Bus.ExactData = s.ExactData
	return cfg
}

// buildUnits wires one shard.Unit per planned channel, as report's
// sharded runner does (per-channel MSHR share, LLC already applied).
func buildUnits(p workload.Profile, s report.RunSpec, plan *shard.Plan, record bool) ([]*shard.Unit, error) {
	units := make([]*shard.Unit, plan.Channels)
	for ch := range units {
		cfg := controllerConfig(s, ch)
		cfg.Bus.Record = record
		ctrl, err := memctrl.New(cfg)
		if err != nil {
			return nil, err
		}
		dcfg := gpu.DriverConfig{MSHRs: p.MSHRs, Obs: s.Obs, ObsLabels: s.ObsLabels}
		if units[ch], err = shard.NewUnit(ch, ctrl, dcfg, plan.Streams[ch]); err != nil {
			return nil, err
		}
	}
	return units, nil
}

// runPool runs units on at most workers goroutines, the scheduling of
// shard.RunUnits, timing each Unit.Run. It returns the pool's wall time,
// the summed busy time (seconds) and each unit's duration.
func runPool(units []*shard.Unit, workers int) (wall, busy float64, durs []float64, err error) {
	durs = make([]float64, len(units))
	runOne := func(i int) {
		t := time.Now()
		units[i].Run()
		durs[i] = time.Since(t).Seconds()
	}
	t0 := time.Now()
	if workers = min(workers, len(units)); workers <= 1 {
		for i := range units {
			runOne(i)
		}
	} else {
		idx := make(chan int)
		done := make(chan struct{})
		for w := 0; w < workers; w++ {
			go func() {
				defer func() { done <- struct{}{} }()
				for i := range idx {
					runOne(i)
				}
			}()
		}
		for i := range units {
			idx <- i
		}
		close(idx)
		for w := 0; w < workers; w++ {
			<-done
		}
	}
	wall = time.Since(t0).Seconds()
	for i, u := range units {
		busy += durs[i]
		if err == nil && u.Err() != nil {
			err = u.Err()
		}
	}
	return wall, busy, durs, err
}

// mergeUnits folds the units into one op output in channel order — the
// public merge calls report's sharded runner makes.
func mergeUnits(units []*shard.Unit) (appOut, error) {
	out := appOut{
		readGaps:  units[0].Ctrl.ReadGapHistogram(),
		writeGaps: units[0].Ctrl.WriteGapHistogram(),
	}
	for i, u := range units {
		out.bus.Merge(u.Ctrl.BusStats())
		out.ctrl.Merge(u.Ctrl.Stats())
		if i > 0 {
			if err := out.readGaps.Merge(u.Ctrl.ReadGapHistogram()); err != nil {
				return appOut{}, err
			}
			if err := out.writeGaps.Merge(u.Ctrl.WriteGapHistogram()); err != nil {
				return appOut{}, err
			}
		}
		r := u.Result()
		out.reads += r.DRAMReads
		out.writes += r.DRAMWrites
		out.clocks = max(out.clocks, r.Clocks)
	}
	return out, nil
}

// runUnits builds, runs and merges one configuration of an op's units.
func runUnits(p workload.Profile, s report.RunSpec, plan *shard.Plan, record bool, workers int) ([]*shard.Unit, appOut, float64, error) {
	units, err := buildUnits(p, s, plan, record)
	if err != nil {
		return nil, appOut{}, 0, err
	}
	_, busy, _, err := runPool(units, workers)
	if err != nil {
		return nil, appOut{}, 0, err
	}
	out, err := mergeUnits(units)
	return units, out, busy, err
}

// replay drives a recorded bus event sequence through a fresh channel.
func replay(events []bus.Event, cfg bus.Config) (bus.Stats, error) {
	ch := bus.New(cfg)
	for _, e := range events {
		switch e.Kind {
		case bus.EventBurst:
			if err := ch.SendBurst(e.Data, e.CodeLength); err != nil {
				return bus.Stats{}, err
			}
		case bus.EventPostamble:
			ch.Postamble()
		case bus.EventIdle:
			ch.Idle(e.IdleUIs)
		default:
			return bus.Stats{}, fmt.Errorf("unexpected bus event kind %d on a fault-free link", e.Kind)
		}
	}
	return ch.Stats(), nil
}

// opener opens an app's access generator: workload.OpenGenerator, or a
// test's wrapper around it.
type opener func(p workload.Profile, seed uint64) (gpu.Generator, error)

// traceOp runs one decomposed op, adding its layer times to led, and
// returns the op's output. buf is reused for the drained access stream.
func traceOp(open opener, p workload.Profile, s report.RunSpec, sh fleetShape, workers int, led *ledger, buf *[]gpu.Access) (appOut, error) {
	// Generator alone, then the LLC alone over its stream.
	gen, err := open(p, s.Seed)
	if err != nil {
		return appOut{}, err
	}
	t := time.Now()
	stream := (*buf)[:0]
	for int64(len(stream)) < sh.accesses {
		a, ok := gen.Next()
		if !ok {
			break
		}
		stream = append(stream, a)
	}
	led.gen += time.Since(t).Seconds()
	*buf = stream
	var llcCfg *gpu.LLCConfig
	if sh.llc {
		cfg := gpu.DefaultLLCConfig()
		llcCfg = &cfg
		l, err := gpu.NewLLC(cfg)
		if err != nil {
			return appOut{}, err
		}
		t = time.Now()
		for _, a := range stream {
			l.Access(a.Sector, a.Write)
		}
		led.llc += time.Since(t).Seconds()
		led.llcAccesses += int64(len(stream))
	}

	// The op path: front end, construction, unit pool, merge.
	t = time.Now()
	gen, err = open(p, s.Seed)
	if err != nil {
		return appOut{}, err
	}
	plan, err := shard.BuildPlan(gen, sh.channels, sh.accesses, llcCfg)
	if err != nil {
		return appOut{}, err
	}
	planD := time.Since(t).Seconds()
	t = time.Now()
	units, err := buildUnits(p, s, plan, false)
	if err != nil {
		return appOut{}, err
	}
	buildD := time.Since(t).Seconds()
	wall, busy, durs, err := runPool(units, workers)
	if err != nil {
		return appOut{}, err
	}
	t = time.Now()
	out, err := mergeUnits(units)
	if err != nil {
		return appOut{}, err
	}
	mergeD := time.Since(t).Seconds()
	if out.ctrl.DecisionMismatches != 0 || out.ctrl.BusConflicts != 0 {
		return appOut{}, fmt.Errorf("controller invariant violated: %+v", out.ctrl)
	}
	led.opPath += planD + buildD + busy + mergeD
	led.plan += planD
	led.merge += mergeD
	led.unitBusy += busy
	led.unitWall += wall
	led.accesses += plan.Accesses
	led.llcStats.Reads += plan.LLC.Reads
	led.llcStats.Writes += plan.LLC.Writes
	led.llcStats.ReadHits += plan.LLC.ReadHits
	led.llcStats.WriteHits += plan.LLC.WriteHits
	led.llcStats.Writebacks += plan.LLC.Writebacks
	var slowest float64
	for i, d := range durs {
		led.unitMs = append(led.unitMs, d*1000)
		slowest = max(slowest, d)
		r := units[i].Result()
		led.stall += r.StallClocks
		led.unitClocks += r.Clocks
	}
	led.maxOverMean = append(led.maxOverMean, ratio(slowest, busy/float64(len(durs))))
	led.liveBus.Merge(out.bus)
	led.ctrl.Merge(out.ctrl)
	led.clocks += out.clocks

	// Counter mirrors: the same units without the registry.
	if s.Obs != nil {
		bare := s
		bare.Obs, bare.ObsLabels = nil, nil
		_, o, bareBusy, err := runUnits(p, bare, plan, false, workers)
		if err != nil {
			return appOut{}, err
		}
		if !o.equal(out) {
			return appOut{}, fmt.Errorf("run without the registry differs from the timed run")
		}
		led.mirror += busy - bareBusy
	}

	// A recorded run with a private registry yields the bus events and
	// the device's command counters.
	rec := s
	rec.Obs, rec.ObsLabels, rec.Profile = obs.NewRegistry(), nil, nil
	recUnits, o, _, err := runUnits(p, rec, plan, true, 1)
	if err != nil {
		return appOut{}, err
	}
	if !o.equal(out) {
		return appOut{}, fmt.Errorf("recorded run differs from the timed run")
	}
	for _, f := range rec.Obs.Gather() {
		if f.Name != "smores_dram_commands_total" {
			continue
		}
		for _, sp := range f.Series {
			for _, l := range sp.Labels {
				switch {
				case l.Key == "cmd" && l.Value == "act":
					led.acts += sp.Value
				case l.Key == "cmd" && (l.Value == "rd" || l.Value == "wr"):
					led.columns += sp.Value
				}
			}
		}
	}

	// Bus replay, then the replay with the profiler attached.
	for _, u := range recUnits {
		events := u.Ctrl.BusEvents()
		cfg := bus.Config{ExactData: s.ExactData, LevelShiftedIdle: s.Policy == memctrl.OptimizedMTA}
		t = time.Now()
		st, err := replay(events, cfg)
		if err != nil {
			return appOut{}, err
		}
		busD := time.Since(t).Seconds()
		if !st.Equal(u.Ctrl.BusStats()) {
			return appOut{}, fmt.Errorf("channel %d: replayed bus stats differ from the live run", u.Channel)
		}
		led.bus += busD
		led.replayedBursts += st.MTABursts + st.SparseBursts
		if s.Profile == nil {
			continue
		}
		cfg.Profile = obs.NewProfile()
		t = time.Now()
		st, err = replay(events, cfg)
		if err != nil {
			return appOut{}, err
		}
		led.profile += time.Since(t).Seconds() - busD
		led.profBursts += st.MTABursts + st.SparseBursts
		if !reconciles(cfg.Profile.TotalEnergy(), st.TotalEnergy()) {
			return appOut{}, fmt.Errorf("channel %d: profile total %.6g fJ vs bus total %.6g fJ",
				u.Channel, cfg.Profile.TotalEnergy(), st.TotalEnergy())
		}
	}
	return out, nil
}

// traceFleet is the traced run of a fleet workload: whole passes of
// decomposed ops, at least one.
func traceFleet(c runConfig, sh fleetShape, fleet []workload.Profile) (*result, error) {
	res := newResult()
	specs := shapeSpecs(sh, c.seed)
	apps := len(fleet)
	nOps := len(specs) * apps
	workers := 1
	if sh.channels > 1 {
		workers = c.workers
	}
	led := &ledger{}
	ref := make([]appOut, nOps)
	var prof *obs.Profile
	var reg *obs.Registry
	var buf []gpu.Access
	var fr report.FleetResult
	clock := newOpClock(c.seconds, nOps, nOps)
	for {
		n, ok := clock.next()
		if !ok {
			break
		}
		idx := n % nOps
		k, i := idx/apps, idx%apps
		if i == 0 {
			prof, reg = fleetObs(sh)
			fr = report.FleetResult{Spec: specs[k]}
		}
		spec := fleetAppSpec(specs[k], i, fleet[i], prof, reg)
		out, err := traceOp(workload.OpenGenerator, fleet[i], spec, sh, workers, led, &buf)
		res.attempted++
		if n < nOps {
			ref[idx] = out
		}
		if err != nil {
			res.fail("op %d (%s, policy %d): %v", n, fleet[i].Name, k, err)
			continue
		}
		if !out.equal(ref[idx]) {
			res.fail("op %d (%s, policy %d): differs from the first pass", n, fleet[i].Name, k)
		}
		fr.Results = append(fr.Results, report.AppResult{
			App: fleet[i], PerBit: out.bus.PerBit(), ReadGaps: out.readGaps, WriteGaps: out.writeGaps,
		})
		if i == apps-1 {
			// The fleet summary calls, once per policy fleet.
			t := time.Now()
			_, errR := fr.AggregateGaps(true)
			_, errW := fr.AggregateGaps(false)
			fr.MeanPerBit()
			d := time.Since(t).Seconds()
			led.merge += d
			led.opPath += d
			if errR != nil || errW != nil {
				res.fail("policy %d: aggregating gaps: %v %v", k, errR, errW)
			}
		}
	}
	res.passes = clock.passes()
	res.digest = fleetDigest(ref)
	_, _, res.metrics["sim_slowdown_pct"] = passSim(ref, apps)
	led.fill(res.metrics, workers)
	return res, nil
}

// fill turns the ledger into per-layer metrics.
func (l *ledger) fill(m map[string]float64, workers int) {
	acc := float64(l.accesses)
	memSelf := l.unitBusy - l.bus - l.profile - l.mirror
	m["memctrl.self_s"] = memSelf
	m["memctrl.ns_per_access"] = ratio(memSelf*1e9, acc)
	m["memctrl.share"] = ratio(memSelf, l.opPath)
	m["memctrl.sim_clocks_per_access"] = ratio(float64(l.clocks), acc)
	m["memctrl.read_latency_clocks"] = ratio(float64(l.ctrl.ReadLatencySum), float64(l.ctrl.ReadsServed))
	m["memctrl.sparse_frac"] = ratio(float64(l.ctrl.SparseReads+l.ctrl.SparseWrites),
		float64(l.ctrl.ReadsServed+l.ctrl.WritesServed))
	m["gddr6x.row_hit_rate"] = 1 - ratio(l.acts, l.columns)
	m["gpu.stall_clocks_frac"] = ratio(float64(l.stall), float64(l.unitClocks))

	b := l.liveBus
	bursts := float64(b.MTABursts + b.SparseBursts)
	m["bus.self_s"] = l.bus
	m["bus.ns_per_burst"] = ratio(l.bus*1e9, float64(l.replayedBursts))
	m["bus.share"] = ratio(l.bus, l.opPath)
	m["bus.sparse_burst_frac"] = ratio(float64(b.SparseBursts), bursts)
	m["bus.postambles_per_burst"] = ratio(float64(b.Postambles), bursts)
	m["bus.idle_frac"] = ratio(float64(b.IdleUIs), float64(b.IdleUIs+b.BusyUIs))

	m["obs.profile_s"] = l.profile
	m["obs.profile_ns_per_burst"] = ratio(l.profile*1e9, float64(l.profBursts))
	m["obs.mirror_s"] = l.mirror
	m["obs.share"] = ratio(l.profile+l.mirror, l.opPath)

	m["workload.gen_ns_per_access"] = ratio(l.gen*1e9, acc)
	m["gpu.llc_ns_per_access"] = ratio(l.llc*1e9, float64(l.llcAccesses))
	m["gpu.llc_hit_rate"] = l.llcStats.HitRate()
	m["gpu.llc_writebacks_per_access"] = ratio(float64(l.llcStats.Writebacks), float64(l.llcAccesses))
	m["shard.plan_s"] = l.plan
	m["shard.plan_share"] = ratio(l.plan, l.opPath)

	m["shard.units_s"] = l.unitWall
	m["shard.pool_busy_frac"] = ratio(l.unitBusy, float64(workers)*l.unitWall)
	m["shard.unit_p95_ms"] = percentile(l.unitMs, 95)
	m["shard.unit_max_over_mean"] = mean(l.maxOverMean)

	m["report.merge_s"] = l.merge
	m["report.share"] = ratio(l.merge, l.opPath)
	m["unattributed_s"] = l.opPath - (l.plan + l.unitBusy + l.merge)
}
