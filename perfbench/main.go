// Command perfbench is the repository's layer-ledger benchmark. It runs
// one named workload for a fixed time from a seed, checks every op it
// times, and prints one JSON result line: end-to-end metrics with
// --trace 0, per-layer metrics from a separately traced run with
// --trace 1. METRICS.md catalogs every metric; run.sh builds and runs
// it from the repository root:
//
//	bash perfbench/run.sh --workload table5 --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"smores/internal/bus"
	"smores/internal/core"
	"smores/internal/mta"
	"smores/internal/pam4"
	"smores/internal/report"
	"smores/internal/workload"
)

// procStart approximates process start for the first set-up's timing.
var procStart = time.Now()

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// workers bounds goroutines and connections: nproc.
	workers int
}

// result is a workload's outcome. metrics holds catalog names; a
// catalog metric missing from it is printed as 0.
type result struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
	digest    string
	passes    int
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

// fail records one failed op; only the first few messages are kept.
func (r *result) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN records a check that invalidates n ops.
func (r *result) failN(n int, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see METRICS.md)")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "timed phase length in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	catalog := fs.Bool("catalog", false, "print the metric catalog as markdown and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *catalog {
		fmt.Fprint(stdout, catalogMarkdown())
		return 0
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	c := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		workers: runtime.GOMAXPROCS(0),
	}
	res, err := w.run(c)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	if !c.trace {
		res.metrics["max_rss_mb"] = maxRSSMB()
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", w.Name, p)
	}
	return emit(stdout, stderr, w.Name, c, res)
}

// fingerprint identifies the host a result came from.
type fingerprint struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

func hostFingerprint() fingerprint {
	return fingerprint{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the info line (fingerprint, digest, pass count) and then
// the result line, which must be the last line of standard output.
func emit(stdout, stderr io.Writer, name string, c runConfig, res *result) int {
	set := endToEnd
	if c.trace {
		set = perLayer
	}
	metrics := make(map[string]metricValue, len(set))
	for _, m := range set {
		metrics[m.Name] = metricValue{Value: res.metrics[m.Name], Unit: m.Unit}
	}
	info := struct {
		Workload    string      `json:"workload"`
		Seed        uint64      `json:"seed"`
		Trace       bool        `json:"trace"`
		Passes      int         `json:"passes"`
		Ops         int         `json:"ops"`
		Digest      string      `json:"digest"`
		Fingerprint fingerprint `json:"fingerprint"`
	}{name, c.seed, c.trace, res.passes, res.attempted, res.digest, hostFingerprint()}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, metrics}
	if res.failed > res.attempted {
		out.Failed = res.attempted
	}
	for _, v := range []any{info, out} {
		b, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", b)
	}
	return 0
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupWindow is how long the set-up is repeated after the timed phase,
// and minSetups the fewest repetitions. A set-up takes a few
// milliseconds, and a shared host's speed can shift by tens of percent
// over tens of milliseconds, so repetitions spread over a second give a
// steadier median than a burst of them.
const (
	setupWindow = time.Second
	minSetups   = 15
)

// setUp builds the run's environment once, timed from process start, so
// the first set-up also carries runtime and package initialisation.
func setUp[E any](build func() (E, func(), error)) (env E, down func(), secs float64, err error) {
	env, down, err = build()
	return env, down, time.Since(procStart).Seconds(), err
}

// setupMedian repeats build and its teardown for window (and at least
// minSetups times) and returns the median set-up time in seconds, first
// included. Call it after the timed phase, so the repetitions touch
// neither its time nor its allocation counts.
func setupMedian[E any](build func() (E, func(), error), first float64, window time.Duration) (float64, error) {
	durs := []float64{first}
	for start := time.Now(); len(durs) < minSetups || time.Since(start) < window; {
		t0 := time.Now()
		_, down, err := build()
		if err != nil {
			return 0, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		down()
	}
	return median(durs), nil
}

// buildSimulator constructs what the first simulated access needs: the
// calibrated energy model, the MTA codec and the sparse codec family
// (each built fresh, which the simulator's memoized defaults hide after
// their first use), the memoized defaults themselves, and the fleet.
func buildSimulator() ([]workload.Profile, error) {
	m, err := pam4.NewEnergyModel(pam4.DefaultDriver(), pam4.CalibratedMeanSymbolEnergy)
	if err != nil {
		return nil, fmt.Errorf("energy model: %w", err)
	}
	mta.New(m)
	if _, err := core.NewFamily(m, core.DefaultFamilyConfig()); err != nil {
		return nil, fmt.Errorf("sparse family: %w", err)
	}
	bus.New(bus.Config{})
	return workload.Fleet(), nil
}

// policyCount is the evaluation matrix's width (report.PolicySpecs).
var policyCount = len(report.PolicySpecs(1, 0, false))

// opClock hands out op indices until the timed phase is over. It always
// finishes the current pass, so every run times whole passes of one op
// mix, and never stops before minOps. Safe for concurrent use.
type opClock struct {
	mu     sync.Mutex
	start  time.Time
	dur    time.Duration
	pass   int
	minOps int
	n      int
	limit  int // -1 until the phase is over
}

func newOpClock(dur time.Duration, pass, minOps int) *opClock {
	return &opClock{start: time.Now(), dur: dur, pass: pass, minOps: minOps, limit: -1}
}

func (c *opClock) next() (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.limit < 0 && time.Since(c.start) >= c.dur {
		c.limit = max(c.n, c.minOps)
		if r := c.limit % c.pass; r != 0 {
			c.limit += c.pass - r
		}
	}
	if c.limit >= 0 && c.n >= c.limit {
		return 0, false
	}
	c.n++
	return c.n - 1, true
}

// passes is the number of whole passes handed out.
func (c *opClock) passes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return (c.n + c.pass - 1) / c.pass
}

// allocDelta is the heap allocation between two MemStats readings.
func allocDelta(a, b *runtime.MemStats) (bytes, count float64) {
	return float64(b.TotalAlloc - a.TotalAlloc), float64(b.Mallocs - a.Mallocs)
}

func readMemStats() *runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &ms
}

// sortedKeys returns a map's keys in order (deterministic digests).
func sortedKeys(m map[string]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
