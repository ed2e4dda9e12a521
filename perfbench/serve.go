package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"smores/internal/obs"
	"smores/internal/obs/session"
	"smores/internal/report"
	"smores/internal/workload"
)

// serve_sessions shape: each session runs serveApps consecutive fleet
// apps at serveAccesses each under one policy; a pass is the whole
// fleet under all five policies, 210 distinct sessions, enough for a
// p95 with 10 sessions beyond it. Sessions last about ten milliseconds,
// so the 2 ms sample interval makes streams carry live deltas before
// their finals.
const (
	serveApps           = 1
	serveAccesses       = 3000
	serveSampleInterval = 2 * time.Millisecond
	// serveRetain caps retained finished sessions, so eviction and the
	// retired accumulator are on the measured path and memory stays flat.
	serveRetain = 16
)

// sessionPolicies is report.PolicySpecs in RunSpecJSON form, in order.
var sessionPolicies = []report.RunSpecJSON{
	{Policy: "baseline-mta"},
	{Policy: "optimized-mta"},
	{Policy: "smores", Specification: "variable", Detection: "exhaustive"},
	{Policy: "smores", Specification: "static", Detection: "exhaustive"},
	{Policy: "smores", Specification: "static", Detection: "conservative"},
}

// serveEnv is the in-process service the clients talk to.
type serveEnv struct {
	reg  *session.Registry
	srv  *obs.Server
	base string
}

func startService(workers int) (*serveEnv, func(), error) {
	g := session.NewRegistry(session.Options{
		Workers:        workers,
		SampleInterval: serveSampleInterval,
		RetainFinished: serveRetain,
	})
	svc := session.NewService(g)
	srv := obs.NewServer(g.Obs(), nil)
	svc.Attach(srv)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		g.Drain()
		return nil, nil, err
	}
	down := func() {
		srv.Close()
		g.Drain()
	}
	return &serveEnv{reg: g, srv: srv, base: "http://" + addr}, down, nil
}

// sessionOp is op n's submission: its group's apps and seed, its policy.
func sessionOp(seed uint64, n int, fleet []workload.Profile) (report.RunSpecJSON, []int) {
	groups := len(fleet) / serveApps
	g := (n / policyCount) % groups
	js := sessionPolicies[n%policyCount]
	js.Accesses = serveAccesses
	js.Seed = report.DecorrelateSeed(seed, g+1) // never 0: 0 asks the service for a seed
	apps := make([]int, serveApps)
	for j := range apps {
		apps[j] = g*serveApps + j
		js.Apps = append(js.Apps, fleet[apps[j]].Name)
	}
	return js, apps
}

// sessionRecord is one completed session op.
type sessionRecord struct {
	n          int
	apps       []int // fleet positions of the session's apps
	start, end time.Time
	latMs      float64
	digest     string
	perBit     []float64 // per app, fJ/bit from the streamed counters
	clocks     []float64 // per app, final controller clock
	err        error
	waitMs     float64 // traced: POST until the session left the queue
	runMs      float64 // traced: run start until Done
	bytes      int64
	lines      int64
	applies    int64
	applyS     float64
	dropped    int64
}

// runSession submits one session over HTTP and follows its delta stream
// to the end, applying every counter and profile line, then reconciles
// the reconstruction with the session's final state.
func (e *serveEnv) runSession(client *http.Client, js report.RunSpecJSON, traced bool) sessionRecord {
	var rec sessionRecord
	body, err := json.Marshal(js)
	if err != nil {
		rec.err = err
		return rec
	}
	t0 := time.Now()
	rec.start = t0
	resp, err := client.Post(e.base+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return rec
	}
	var info session.Info
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		rec.err = fmt.Errorf("POST /sessions: status %d: %v", resp.StatusCode, err)
		return rec
	}
	sess, ok := e.reg.Get(info.ID)
	if !ok {
		rec.err = fmt.Errorf("session %s not in the registry", info.ID)
		return rec
	}
	var watch sync.WaitGroup
	var started, finished time.Time
	if traced {
		watch.Add(1)
		go func() {
			defer watch.Done()
			for {
				if st, _ := sess.State(); st != session.StateQueued {
					break
				}
				time.Sleep(50 * time.Microsecond)
			}
			started = time.Now()
			<-sess.Done()
			finished = time.Now()
		}()
	}

	state, prof := obs.NewStreamState(), obs.NewProfileStreamState()
	counterDone, profileDone, err := follow(client, e.base+"/sessions/"+info.ID+"/stream?include=profile",
		state, prof, traced, &rec)
	rec.end = time.Now()
	rec.latMs = rec.end.Sub(t0).Seconds() * 1000
	watch.Wait()
	<-sess.Done()
	if traced {
		rec.waitMs = started.Sub(t0).Seconds() * 1000
		rec.runMs = finished.Sub(started).Seconds() * 1000
		rec.dropped = sess.Ring().Dropped()
	}
	if err != nil {
		rec.err = err
		return rec
	}
	if _, err := sess.State(); err != nil {
		rec.err = fmt.Errorf("session %s failed: %w", info.ID, err)
		return rec
	}
	if !counterDone || !profileDone {
		rec.err = fmt.Errorf("session %s: stream ended without finals (counters %v, profile %v)", info.ID, counterDone, profileDone)
		return rec
	}
	points := state.Points()
	if !obs.EqualPoints(points, sess.Full().Points) {
		rec.err = fmt.Errorf("session %s: streamed counters differ from the final metrics", info.ID)
		return rec
	}
	if !reconciles(prof.TotalFJ(), sess.Profile().TotalEnergy()) {
		rec.err = fmt.Errorf("session %s: streamed profile %.6g fJ vs final profile %.6g fJ",
			info.ID, prof.TotalFJ(), sess.Profile().TotalEnergy())
		return rec
	}
	var energy float64
	for _, app := range js.Apps {
		fj, bits, clock := appTotals(points, app)
		if bits == 0 {
			rec.err = fmt.Errorf("session %s: no data bits streamed for %s", info.ID, app)
			return rec
		}
		energy += fj
		rec.perBit = append(rec.perBit, fj/bits)
		rec.clocks = append(rec.clocks, clock)
	}
	if !reconciles(prof.TotalFJ(), energy) {
		rec.err = fmt.Errorf("session %s: streamed profile %.6g fJ vs streamed bus energy counters %.6g fJ",
			info.ID, prof.TotalFJ(), energy)
		return rec
	}
	rec.digest = pointsDigest(points)
	return rec
}

// follow reads one NDJSON stream to its end, applying each line.
func follow(client *http.Client, url string, state *obs.StreamState, prof *obs.ProfileStreamState,
	traced bool, rec *sessionRecord) (counterDone, profileDone bool, err error) {
	resp, err := client.Get(url)
	if err != nil {
		return false, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, false, fmt.Errorf("GET stream: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 8<<20)
	for sc.Scan() {
		rec.bytes += int64(len(sc.Bytes())) + 1
		rec.lines++
		var line obs.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return false, false, err
		}
		var t time.Time
		if traced {
			t = time.Now()
		}
		var ok bool
		if line.Profile != nil {
			ok = prof.Apply(*line.Profile)
			profileDone = profileDone || line.Profile.Final
		} else {
			ok = state.Apply(line.DeltaSnapshot)
			counterDone = counterDone || line.Final
		}
		if traced {
			rec.applyS += time.Since(t).Seconds()
			rec.applies++
		}
		if !ok {
			return false, false, fmt.Errorf("stream sequence gap at line %d", rec.lines)
		}
	}
	return counterDone, profileDone, sc.Err()
}

// appTotals reads one app's bus energy (fJ), data bits and final
// controller clock from a reconstructed counter state.
func appTotals(points []obs.DeltaPoint, app string) (fj, bits, clock float64) {
	for _, p := range points {
		if p.Labels["app"] != app {
			continue
		}
		switch p.Name {
		case "smores_bus_wire_energy_femtojoules_total", "smores_bus_postamble_energy_femtojoules_total",
			"smores_bus_logic_energy_femtojoules_total", "smores_bus_replay_energy_femtojoules_total":
			fj += p.Value
		case "smores_bus_data_bits_total":
			bits += p.Value
		case "smores_ctrl_clock":
			clock = math.Max(clock, p.Value)
		}
	}
	return fj, bits, clock
}

// pointsDigest hashes a sorted counter state.
func pointsDigest(points []obs.DeltaPoint) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range points {
		h.Write([]byte(p.Name))
		for _, k := range sortedKeys(p.Labels) {
			h.Write([]byte{0})
			h.Write([]byte(k + "=" + p.Labels[k]))
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.Value))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// runServeSessions is the closed loop: c.workers clients, each
// submitting its next session only after the previous one's final delta
// was applied.
func runServeSessions(c runConfig) (*result, error) {
	var fleet []workload.Profile
	build := func() (*serveEnv, func(), error) {
		f, err := buildSimulator()
		if err != nil {
			return nil, nil, err
		}
		fleet = f
		return startService(c.workers)
	}
	env, down, firstSetup, err := setUp(build)
	if err != nil {
		return nil, err
	}
	defer down()
	res := newResult()
	pass := len(fleet) / serveApps * policyCount
	transport := &http.Transport{MaxConnsPerHost: c.workers, MaxIdleConnsPerHost: c.workers}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	var mu sync.Mutex
	var recs []sessionRecord
	var wg sync.WaitGroup
	clock := newOpClock(c.seconds, pass, pass)
	ms0 := readMemStats()
	for w := 0; w < c.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n, ok := clock.next()
				if !ok {
					return
				}
				js, apps := sessionOp(c.seed, n, fleet)
				rec := env.runSession(client, js, c.trace)
				rec.n, rec.apps = n, apps
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ms1 := readMemStats()
	res.passes = clock.passes()
	sort.Slice(recs, func(a, b int) bool { return recs[a].n < recs[b].n })

	apps := len(fleet)
	perBit := make([]float64, policyCount*apps)
	clocks := make([]float64, policyCount*apps)
	digests := make([]string, pass)
	best := make([]float64, pass) // each distinct session's fastest repeat, ms
	var waits, runs []float64
	var bytesN, lines, applies, dropped int64
	var applyS, latS, waitRunS float64
	for _, r := range recs {
		res.attempted++
		if idx := r.n % pass; r.n < pass || r.latMs < best[idx] {
			best[idx] = r.latMs
		}
		if r.err != nil {
			res.fail("session op %d: %v", r.n, r.err)
			continue
		}
		idx := r.n % pass
		if r.n < pass {
			digests[idx] = r.digest
			k := r.n % policyCount
			for j, a := range r.apps {
				perBit[k*apps+a] = r.perBit[j]
				clocks[k*apps+a] = r.clocks[j]
			}
		} else if r.digest != digests[idx] {
			res.fail("session op %d: final counters differ from the first pass", r.n)
		}
		waits = append(waits, r.waitMs)
		runs = append(runs, r.runMs)
		bytesN += r.bytes
		lines += r.lines
		applies += r.applies
		applyS += r.applyS
		dropped += r.dropped
		latS += r.latMs / 1000
		waitRunS += (r.waitMs + r.runMs) / 1000
	}
	h := sha256.New()
	for _, d := range digests {
		h.Write([]byte(d))
	}
	res.digest = hex.EncodeToString(h.Sum(nil)[:16])
	ok := float64(len(waits))
	if c.trace {
		res.metrics["session.queue_wait_ms_p50"] = median(waits)
		res.metrics["session.run_ms_p50"] = median(runs)
		res.metrics["session.stream_bytes_per_session"] = ratio(float64(bytesN), ok)
		res.metrics["session.snapshots_per_session"] = ratio(float64(lines), ok)
		res.metrics["session.dropped_snapshots"] = float64(dropped)
		res.metrics["obs.delta_apply_ns"] = ratio(applyS*1e9, float64(applies))
		res.metrics["unattributed_s"] = latS - waitRunS
		_, _, res.metrics["sim_slowdown_pct"] = simMetrics(perBit, clocks, apps)
		return res, nil
	}
	down() // idle the service before timing set-ups (Close and Drain are idempotent)
	if res.metrics["setup_s"], err = setupMedian(build, firstSetup, setupWindow); err != nil {
		return nil, err
	}
	accesses := float64(res.attempted * serveApps * serveAccesses)
	b, cnt := allocDelta(ms0, ms1)
	setOpMetrics(res.metrics, best)
	// Throughput is the closed loop's best pass: a pass's accesses over
	// the wall time from its first submission to its last final delta.
	spans := make([][2]time.Time, res.passes)
	for _, r := range recs {
		sp := &spans[r.n/pass]
		if sp[0].IsZero() || r.start.Before(sp[0]) {
			sp[0] = r.start
		}
		if r.end.After(sp[1]) {
			sp[1] = r.end
		}
	}
	for _, sp := range spans {
		tput := ratio(float64(pass*serveApps*serveAccesses), sp[1].Sub(sp[0]).Seconds())
		res.metrics["accesses_per_s"] = max(res.metrics["accesses_per_s"], tput)
	}
	res.metrics["alloc_bytes_per_access"] = ratio(b, accesses)
	res.metrics["allocs_per_access"] = ratio(cnt, accesses)
	res.metrics["smores_pj_per_bit"], res.metrics["paper_gap_pp"], _ = simMetrics(perBit, clocks, apps)
	return res, nil
}
