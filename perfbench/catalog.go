package main

import (
	"fmt"
	"strings"
)

// The metric catalog: every number the benchmark prints is declared
// here once, with its unit, the layer it belongs to and the end-to-end
// metric (and workload) it is expected to move. Like numascope's
// Event{index, desc} tables, the catalog is self-describing: the
// printed result, METRICS.md and BENCHMARK.json are all checked against
// it, so a metric cannot be added in one place and forgotten in another.

// Metric is one catalog entry.
type Metric struct {
	Name  string
	Unit  string
	Layer string
	// Better is "lower" or "higher".
	Better string
	// Bound is the regression bound of an end-to-end metric: the share
	// of the parent's median by which it may worsen. Zero on per-layer
	// metrics, which are not gated.
	Bound float64
	// Moves names the end-to-end metric and workload a change to this
	// layer should move (empty on end-to-end metrics).
	Moves string
	Desc  string
}

// endToEnd are measured with tracing off (--trace 0). Every workload
// reports every one of them.
var endToEnd = []Metric{
	{"setup_s", "s", "e2e", "lower", 0.25, "",
		"Median set-up time (energy model, MTA codec, sparse family, fleet; serve_sessions adds registry and listener); first from process start, repeated after the timed phase."},
	{"accesses_per_s", "1/s", "e2e", "higher", 0.25, "",
		"Simulated LLC-level accesses per host second: a pass's accesses over the sum of its ops' fastest repeats (serve_sessions: over the wall time of the fastest pass of the closed loop)."},
	{"op_p50_ms", "ms", "e2e", "lower", 0.25, "",
		"Median over the 210 distinct ops of each op's fastest repeat in the run (host time; every op repeats several times)."},
	{"op_p95_ms", "ms", "e2e", "lower", 0.25, "",
		"95th percentile (nearest rank) over the 210 distinct ops' fastest repeats: 10 ops lie beyond it."},
	{"alloc_bytes_per_access", "B", "e2e", "lower", 0.1, "",
		"runtime.MemStats TotalAlloc delta over the timed phase per simulated access."},
	{"allocs_per_access", "count", "e2e", "lower", 0.1, "",
		"runtime.MemStats Mallocs delta over the timed phase per simulated access."},
	{"max_rss_mb", "MB", "e2e", "lower", 0.25, "",
		"Peak resident memory of the benchmark process (getrusage ru_maxrss)."},
	{"smores_pj_per_bit", "pJ", "e2e", "lower", 0.02, "",
		"Fleet-mean simulated bus energy per data bit under SMOREs exhaustive/variable (deterministic for a seed)."},
	{"paper_gap_pp", "pp", "e2e", "lower", 0.25, "",
		"Mean |measured - paper| over the three SMOREs savings vs baseline-mta against Table V's 28.2/26.8/25.2 %."},
}

// perLayer are measured by a separate traced run (--trace 1) that times
// the benchmark's own calls into each module's public functions. A
// metric whose layer a workload does not run reads 0 there.
var perLayer = []Metric{
	// memctrl with gddr6x: the controller hot path.
	{"memctrl.self_s", "s", "memctrl", "lower", 0, "accesses_per_s, op_p50_ms on table5 (less on exact_profiled)",
		"shard.Unit.Run host time with recording off, minus bus replay, profile and mirror time."},
	{"memctrl.ns_per_access", "ns", "memctrl", "lower", 0, "accesses_per_s on table5",
		"memctrl.self_s per simulated access."},
	{"memctrl.share", "ratio", "memctrl", "lower", 0, "op_p50_ms on table5",
		"memctrl.self_s over the traced op-path host time."},
	{"memctrl.sim_clocks_per_access", "clocks", "memctrl", "lower", 0, "accesses_per_s on table5",
		"Simulated controller clocks per access (slowest shard on sharded runs)."},
	{"memctrl.read_latency_clocks", "clocks", "memctrl", "lower", 0, "op_p50_ms on table5",
		"Mean simulated read latency, arrive to decode."},
	{"memctrl.sparse_frac", "ratio", "memctrl", "higher", 0, "smores_pj_per_bit on table5",
		"Share of transfers that committed to a sparse code (all policies)."},
	{"gddr6x.row_hit_rate", "ratio", "gddr6x", "higher", 0, "accesses_per_s on table5",
		"1 - ACT / (RD + WR) from the device command counters."},
	{"gpu.stall_clocks_frac", "ratio", "gpu", "lower", 0, "accesses_per_s on table5",
		"Driver stall clocks over simulated clocks."},
	{"sim_slowdown_pct", "%", "memctrl", "lower", 0, "none (simulated output; the paper reports 0.024)",
		"Fleet-mean increase in simulated clocks of SMOREs exhaustive/variable over baseline-mta."},
	// bus with mta and core: encode and energy accounting.
	{"bus.self_s", "s", "bus", "lower", 0, "accesses_per_s on exact_profiled; no change on table5",
		"Replay of the recorded bus events through bus.New with the controller's bus config, profile off."},
	{"bus.ns_per_burst", "ns", "bus", "lower", 0, "accesses_per_s on exact_profiled",
		"bus.self_s per replayed burst."},
	{"bus.share", "ratio", "bus", "lower", 0, "accesses_per_s on exact_profiled",
		"bus.self_s over the traced op-path host time."},
	{"bus.sparse_burst_frac", "ratio", "bus", "higher", 0, "smores_pj_per_bit",
		"Sparse bursts over all bursts."},
	{"bus.postambles_per_burst", "ratio", "bus", "lower", 0, "smores_pj_per_bit",
		"Postambles driven per burst."},
	{"bus.idle_frac", "ratio", "bus", "lower", 0, "none (simulated occupancy)",
		"Idle UIs over all UIs on the wires."},
	// obs: profiler and counter mirrors.
	{"obs.profile_s", "s", "obs", "lower", 0, "accesses_per_s on exact_profiled; no change on table5",
		"Bus replay with the energy profile attached minus the replay without it."},
	{"obs.profile_ns_per_burst", "ns", "obs", "lower", 0, "accesses_per_s on exact_profiled",
		"obs.profile_s per replayed burst."},
	{"obs.mirror_s", "s", "obs", "lower", 0, "accesses_per_s on exact_profiled",
		"Unit run with the obs.Registry attached minus the same run without it."},
	{"obs.share", "ratio", "obs", "lower", 0, "accesses_per_s on exact_profiled",
		"(obs.profile_s + obs.mirror_s) over the traced op-path host time."},
	// Front end: workload generator, gpu LLC, shard plan.
	{"workload.gen_ns_per_access", "ns", "workload", "lower", 0, "accesses_per_s, op_p95_ms on sharded8_llc",
		"Draining workload.OpenGenerator for the op's access budget, per access."},
	{"gpu.llc_ns_per_access", "ns", "gpu", "lower", 0, "accesses_per_s, op_p95_ms on sharded8_llc",
		"Feeding the drained stream through gpu.LLC.Access, per access."},
	{"gpu.llc_hit_rate", "ratio", "gpu", "higher", 0, "accesses_per_s on sharded8_llc",
		"Shared LLC hit rate in the front-end epoch."},
	{"gpu.llc_writebacks_per_access", "ratio", "gpu", "lower", 0, "accesses_per_s on sharded8_llc",
		"LLC writebacks per access."},
	{"shard.plan_s", "s", "shard", "lower", 0, "accesses_per_s, op_p95_ms on sharded8_llc (about 4% on table5)",
		"workload.OpenGenerator plus shard.BuildPlan host time (the serial front-end epoch)."},
	{"shard.plan_share", "ratio", "shard", "lower", 0, "op_p95_ms on sharded8_llc",
		"shard.plan_s over the traced op-path host time."},
	// shard pool.
	{"shard.units_s", "s", "shard", "lower", 0, "accesses_per_s on sharded8_llc",
		"Wall time of the unit pool (nproc workers on sharded8_llc, one elsewhere)."},
	{"shard.pool_busy_frac", "ratio", "shard", "higher", 0, "accesses_per_s on sharded8_llc",
		"Summed unit busy time over (workers x pool wall)."},
	{"shard.unit_p95_ms", "ms", "shard", "lower", 0, "accesses_per_s on sharded8_llc",
		"95th-percentile host time of one shard.Unit.Run."},
	{"shard.unit_max_over_mean", "ratio", "shard", "lower", 0, "accesses_per_s on sharded8_llc",
		"Slowest unit over the mean unit, per op, averaged: the straggler factor."},
	// report merge.
	{"report.merge_s", "s", "report", "lower", 0, "op_p50_ms on sharded8_llc",
		"bus.Stats.Merge, memctrl.Stats.Merge, histogram merges, FleetResult.AggregateGaps and MeanPerBit."},
	{"report.share", "ratio", "report", "lower", 0, "op_p50_ms on sharded8_llc",
		"report.merge_s over the traced op-path host time."},
	// session service and the delta codecs.
	{"session.queue_wait_ms_p50", "ms", "session", "lower", 0, "op_p95_ms on serve_sessions; no change on the fleets",
		"Median time from POST until the session left the queued state."},
	{"session.run_ms_p50", "ms", "session", "lower", 0, "op_p95_ms, accesses_per_s on serve_sessions",
		"Median time from run start until the session's Done channel closed."},
	{"session.stream_bytes_per_session", "B", "session", "lower", 0, "op_p95_ms on serve_sessions",
		"NDJSON bytes read from /sessions/{id}/stream?include=profile per session."},
	{"session.snapshots_per_session", "count", "session", "lower", 0, "op_p95_ms on serve_sessions",
		"Stream lines (counter plus profile snapshots) applied per session."},
	{"session.dropped_snapshots", "count", "session", "lower", 0, "op_p95_ms on serve_sessions",
		"Ring evictions summed over the run's sessions."},
	{"obs.delta_apply_ns", "ns", "obs", "lower", 0, "op_p95_ms on serve_sessions",
		"Mean host time of one StreamState.Apply or ProfileStreamState.Apply."},
	// Residual.
	{"unattributed_s", "s", "residual", "lower", 0, "none",
		"Traced op-path host time minus the sum of the layer self times (construction, timers, goroutine hand-offs)."},
}

// Workload is one named input set.
type Workload struct {
	Name string
	Why  string
	// Op is what one timed op is.
	Op  string
	run func(c runConfig) (*result, error)
}

// workloads are cited by name in later changes; never rename one.
var workloads = []Workload{
	{"table5", "Paper's headline 42 app x 5 policy sweep, expected energy, LLC off, 1 worker: memctrl+gddr6x dominate, bus is ~2%.",
		"one app under one policy through report.RunApp (the body of RunFleetOpts at 1 worker), 2000 accesses", runTable5},
	{"exact_profiled", "Same matrix with exact symbol data, energy profile and counter registry: bus, mta, core and obs dominate.",
		"as table5 at 1000 accesses with ExactData, the policy fleet's obs.Profile and its obs.Registry (app label) attached", runExactProfiled},
	{"sharded8_llc", "8-channel sharded fleet with the LLC on and nproc workers: front-end epoch, shard pool and per-app merge.",
		"one app under one policy through report.RunAppMultiChannelSharded, 8 channels, nproc workers, 6000 accesses", runSharded8LLC},
	{"serve_sessions", "nproc closed-loop HTTP clients submit sessions and follow their delta streams: the only obs/session path.",
		"one session (one app, 3000 accesses, one policy) from POST until its final delta is applied", runServeSessions},
}

func lookupWorkload(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// catalogMarkdown renders METRICS.md from the catalog.
func catalogMarkdown() string {
	var b strings.Builder
	b.WriteString("# perfbench metric catalog\n\n")
	b.WriteString("Generated by `go run . --catalog > METRICS.md` in this directory; a test keeps it in sync.\n\n")
	b.WriteString("Run from the repository root: `bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>`.\n")
	b.WriteString("The last line of standard output is the result (`correct`, `attempted`, `failed`, `metrics`); the line before it\n")
	b.WriteString("carries the pass count, the output digest of the first pass (fleet workloads: every op's energies, clocks and\n")
	b.WriteString("gap histograms; serve_sessions: every session's final streamed counters) and the host fingerprint (Go version,\n")
	b.WriteString("GOMAXPROCS, NumCPU). A run times whole passes of the 42-app x 5-policy matrix for at least `--seconds` and at\n")
	b.WriteString("least 200 ops, and checks every op: repeats must equal the first pass; on the fleet workloads each distinct op\n")
	b.WriteString("must also equal the workload's fleet entry point at one worker (report.RunFleetOpts, report.RunFleetMultiChannel)\n")
	b.WriteString("and exact_profiled's profile must reconcile with the bus energy; on serve_sessions the streamed counters and\n")
	b.WriteString("profile must reconcile with the session's final metrics. Failed ops are the result's `failed` count.\n")
	b.WriteString("LEDGER.md holds the first traced row.\n\n")
	b.WriteString("## Workloads\n\n| name | why | one op |\n|---|---|---|\n")
	for _, w := range workloads {
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", w.Name, w.Why, w.Op)
	}
	b.WriteString("\n## End-to-end metrics (`--trace 0`)\n\n")
	b.WriteString("Every workload reports every one. Bound: the share of the parent's median by which the metric may worsen.\n\n")
	b.WriteString("| name | unit | better | bound | meaning |\n|---|---|---|---|---|\n")
	for _, m := range endToEnd {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %g | %s |\n", m.Name, m.Unit, m.Better, m.Bound, m.Desc)
	}
	b.WriteString("\n## Per-layer metrics (`--trace 1`)\n\n")
	b.WriteString("From a separate traced run; a layer a workload does not run reads 0 there. Not gated.\n\n")
	b.WriteString("| name | unit | layer | should move | meaning |\n|---|---|---|---|---|\n")
	for _, m := range perLayer {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", m.Name, m.Unit, m.Layer, m.Moves, m.Desc)
	}
	return b.String()
}
