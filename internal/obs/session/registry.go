package session

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"smores/internal/obs"
	"smores/internal/report"
)

// Options tunes a session registry.
type Options struct {
	// Workers bounds concurrently running sessions (0 selects
	// GOMAXPROCS). Each session additionally bounds its own in-session
	// app parallelism via its spec's Workers field.
	Workers int
	// SampleInterval is the per-session delta emission period (0 selects
	// DefaultSampleInterval).
	SampleInterval time.Duration
	// RingCapacity bounds each session's snapshot buffer (0 selects
	// DefaultRingCapacity).
	RingCapacity int
	// QueueDepth bounds sessions accepted but not yet running (0 selects
	// DefaultQueueDepth). A full queue rejects submissions — explicit
	// backpressure at the API instead of unbounded memory.
	QueueDepth int
	// RetainFinished caps the finished sessions kept individually
	// addressable (0 = keep forever). When exceeded, the oldest-finished
	// sessions are retired: their final registry and profile fold into
	// the registry's persistent retired accumulator — so the fleet
	// roll-up stays exactly conserved — and the per-session surface
	// (scrapes, stream late-joins) 404s afterwards.
	RetainFinished int
	// RetainTTL additionally retires finished sessions older than this
	// (0 = no age limit). Sweeps run on session completion and on
	// submission, so an idle service retires on its next interaction.
	RetainTTL time.Duration
}

// DefaultSampleInterval is the delta emission period. Sessions at small
// access budgets finish inside one period and stream only their final
// snapshot — the correct degenerate case, exercised by the load test.
const DefaultSampleInterval = 100 * time.Millisecond

// DefaultQueueDepth admits a large burst of queued sessions; the load
// test's 200-session burst fits with room to spare.
const DefaultQueueDepth = 1024

// Registry owns every submitted session: it assigns identities and
// seeds, runs sessions on a bounded worker pool, and serves lookups,
// listings, and the fleet-wide roll-up. Its own operational counters
// (submissions, completions, queue depth) live in a service-level
// obs.Registry separate from any session's.
type Registry struct {
	opts Options
	obs  *obs.Registry

	submitted *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	rejected  *obs.Counter
	queued    *obs.Gauge
	running   *obs.Gauge
	retainedG *obs.Gauge
	retiredC  *obs.Counter
	dropsC    *obs.Counter // aggregate ring evictions, shared by every session ring

	mu       sync.Mutex
	sessions map[string]*Session
	order    []string
	finished []string // finish order — the retirement queue
	nextID   uint64
	closed   bool

	// The retired accumulator: evicted sessions fold their final
	// registry/profile (and Info tallies) in here before removal, so
	// FleetRegistry/FleetProfile stay exactly conserved across eviction.
	retiredReg  *obs.Registry
	retiredProf *obs.Profile
	retired     RetiredTally
	evictFns    []func(*Session) // run under mu, in retirement order

	queue chan *Session
	wg    sync.WaitGroup
}

// RetiredTally summarizes the sessions folded into the retired
// accumulator — what the landing page and service gauges report for
// sessions that are no longer individually addressable.
type RetiredTally struct {
	Sessions  int64  `json:"sessions"`
	Done      int64  `json:"done"`
	Failed    int64  `json:"failed"`
	Snapshots uint64 `json:"snapshots"`
	Dropped   int64  `json:"dropped_snapshots"`
	// MergeErrors counts retirement attempts abandoned because the
	// session's registry conflicted with the accumulator (the session is
	// kept addressable instead of losing its data).
	MergeErrors int64 `json:"merge_errors,omitempty"`
}

// NewRegistry builds a registry and starts its worker pool.
func NewRegistry(opts Options) *Registry {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.SampleInterval <= 0 {
		opts.SampleInterval = DefaultSampleInterval
	}
	if opts.RingCapacity <= 0 {
		opts.RingCapacity = DefaultRingCapacity
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	reg := obs.NewRegistry()
	g := &Registry{
		opts:      opts,
		obs:       reg,
		submitted: reg.Counter("smores_sessions_submitted_total", "Sessions accepted by the registry."),
		completed: reg.Counter("smores_sessions_completed_total", "Sessions that ran to completion."),
		failed:    reg.Counter("smores_sessions_failed_total", "Sessions whose run returned an error."),
		rejected:  reg.Counter("smores_sessions_rejected_total", "Submissions rejected (bad spec or full queue)."),
		queued:    reg.Gauge("smores_sessions_queued", "Sessions accepted but not yet running."),
		running:   reg.Gauge("smores_sessions_running", "Sessions currently executing."),
		retainedG: reg.Gauge("smores_sessions_retained", "Finished sessions still individually addressable."),
		retiredC:  reg.Counter("smores_sessions_retired_total", "Finished sessions folded into the retired accumulator."),
		dropsC:    reg.Counter("smores_snapshots_dropped_total", "Ring-evicted snapshots aggregated across all sessions."),
		sessions:  make(map[string]*Session),
		// Created eagerly, never nil: a lazily-created accumulator risks
		// the silently inert nil-receiver Merge losing evicted data.
		retiredReg:  obs.NewRegistry(),
		retiredProf: obs.NewProfile(),
		queue:       make(chan *Session, opts.QueueDepth),
	}
	for w := 0; w < opts.Workers; w++ {
		g.wg.Add(1)
		go g.worker()
	}
	return g
}

func (g *Registry) worker() {
	defer g.wg.Done()
	for sess := range g.queue {
		g.queued.Add(-1)
		g.running.Add(1)
		sess.run(g.opts.SampleInterval)
		g.running.Add(-1)
		if _, err := sess.State(); err != nil {
			g.failed.Inc()
		} else {
			g.completed.Inc()
		}
		sess.markDone()
		g.finishSession(sess)
	}
}

// finishSession enrolls a just-completed session in the retirement queue
// and sweeps — completion is one of the two moments retention policy is
// enforced (submission is the other, so TTLs apply on an idle service's
// next interaction).
func (g *Registry) finishSession(sess *Session) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.finished = append(g.finished, sess.ID())
	g.retainedG.Set(int64(len(g.finished)))
	g.sweepLocked(time.Now())
}

// sweepLocked retires finished sessions from the front of the finish
// queue while the retention cap is exceeded or the TTL has lapsed.
// Callers hold g.mu.
func (g *Registry) sweepLocked(now time.Time) {
	for len(g.finished) > 0 {
		over := g.opts.RetainFinished > 0 && len(g.finished) > g.opts.RetainFinished
		expired := false
		if !over && g.opts.RetainTTL > 0 {
			if s, ok := g.sessions[g.finished[0]]; ok {
				if fin := s.finishedAt(); !fin.IsZero() && now.Sub(fin) >= g.opts.RetainTTL {
					expired = true
				}
			} else {
				expired = true // dangling entry; drop it below via retireLocked
			}
		}
		if !over && !expired {
			return
		}
		g.retireLocked(g.finished[0])
	}
}

// retireLocked folds one finished session into the retired accumulator
// and removes it from every index. The registry merge, profile merge,
// tally update, and evict hooks all run inside the same g.mu critical
// section, so their order across sessions equals retirement order — the
// invariant that keeps float summation bit-exact between the live
// roll-up and any conservation bookkeeping an evict hook maintains.
// Callers hold g.mu.
func (g *Registry) retireLocked(id string) {
	// Unlink from the finish queue first: even the error path below must
	// not loop forever in sweepLocked.
	for i, fid := range g.finished {
		if fid == id {
			g.finished = append(g.finished[:i], g.finished[i+1:]...)
			break
		}
	}
	g.retainedG.Set(int64(len(g.finished)))
	s, ok := g.sessions[id]
	if !ok {
		return
	}
	if err := g.retiredReg.Merge(s.Registry()); err != nil {
		// A conflicting registry cannot be folded in without losing data;
		// keep the session addressable (out of the finish queue so the
		// sweep terminates) and count the anomaly.
		g.retired.MergeErrors++
		return
	}
	g.retiredProf.Merge(s.profileLoaded())
	info := s.Info()
	g.retired.Sessions++
	if _, err := s.State(); err != nil {
		g.retired.Failed++
	} else {
		g.retired.Done++
	}
	g.retired.Snapshots += info.Snapshots
	g.retired.Dropped += info.Dropped
	g.retiredC.Inc()
	delete(g.sessions, id)
	for i, oid := range g.order {
		if oid == id {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
	for _, fn := range g.evictFns {
		fn(s)
	}
}

// AddEvictHook registers a function called — under the registry lock, in
// retirement order — for every session folded into the retired
// accumulator. The service uses it to purge per-session handler caches;
// tests use it to keep conservation bookkeeping in merge order. Hooks
// must not call back into the registry.
func (g *Registry) AddEvictHook(fn func(*Session)) {
	if g == nil || fn == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.evictFns = append(g.evictFns, fn)
}

// Sentinel errors for Retire, mapped by the service to 404 and 409.
var (
	ErrNoSession     = fmt.Errorf("session: no such session")
	ErrSessionActive = fmt.Errorf("session: session is still queued or running")
)

// Retire folds one finished session into the retired accumulator on
// demand (DELETE /sessions/{id}) — the same path the retention sweep
// takes, so the fleet roll-up stays exactly conserved.
func (g *Registry) Retire(id string) error {
	if g == nil {
		return ErrNoSession
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.sessions[id]
	if !ok {
		return ErrNoSession
	}
	select {
	case <-s.Done():
	default:
		return ErrSessionActive
	}
	before := g.retired.MergeErrors
	g.retireLocked(id)
	if g.retired.MergeErrors != before {
		return fmt.Errorf("session: %s: registry conflicts with retired accumulator", id)
	}
	return nil
}

// Retired returns the tally of sessions folded into the accumulator.
func (g *Registry) Retired() RetiredTally {
	if g == nil {
		return RetiredTally{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.retired
}

// RetainedCount returns how many finished sessions are still
// individually addressable.
func (g *Registry) RetainedCount() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.finished)
}

// Obs returns the registry's service-level metrics (distinct from any
// session's registry; it is what the service's root /metrics serves).
func (g *Registry) Obs() *obs.Registry {
	if g == nil {
		return nil
	}
	return g.obs
}

// sessionSeed spreads auto-assigned seeds with a golden-ratio stride so
// consecutive sessions replay distinct traffic; it is recorded on the
// session, making every auto-seeded run reproducible offline.
func sessionSeed(n uint64) uint64 { return 1 + n*0x9E3779B97F4A7C15 }

// Submit validates a spec, assigns an id (and a seed when the spec left
// it 0), and enqueues the session. A full queue or closed registry is
// an error — the service maps it to 503.
func (g *Registry) Submit(spec report.RunSpecJSON) (*Session, error) {
	if g == nil {
		return nil, fmt.Errorf("session: nil registry")
	}
	if err := spec.Validate(); err != nil {
		g.rejected.Inc()
		return nil, err
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		g.rejected.Inc()
		return nil, fmt.Errorf("session: registry is shut down")
	}
	g.nextID++
	id := fmt.Sprintf("s-%06d", g.nextID)
	seed := spec.Seed
	if seed == 0 {
		seed = sessionSeed(g.nextID)
	}
	sess := newSession(id, spec, seed, g.opts.RingCapacity)
	sess.Ring().CountDrops(g.dropsC)
	// A TTL sweep on every interaction: an idle service retires expired
	// sessions the next time anyone submits.
	g.sweepLocked(time.Now())
	// Raise the queued gauge before the channel send: a worker may pick
	// the session up the instant it lands, and the gauge must never go
	// negative. Gauges take negative deltas, so the full-queue path can
	// revert; the monotone submitted counter increments only on success.
	g.queued.Add(1)
	select {
	case g.queue <- sess:
	default:
		g.nextID--
		g.queued.Add(-1)
		g.mu.Unlock()
		g.rejected.Inc()
		return nil, fmt.Errorf("session: queue full (%d pending)", g.opts.QueueDepth)
	}
	g.submitted.Inc()
	g.sessions[id] = sess
	g.order = append(g.order, id)
	g.mu.Unlock()
	return sess, nil
}

// Get looks a session up by id.
func (g *Registry) Get(id string) (*Session, bool) {
	if g == nil {
		return nil, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.sessions[id]
	return s, ok
}

// List returns every session in submission order — the deterministic
// order the fleet roll-up merges in.
func (g *Registry) List() []*Session {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Session, 0, len(g.order))
	for _, id := range g.order {
		out = append(out, g.sessions[id])
	}
	return out
}

// Infos returns the session listing sorted by id (== submission order).
func (g *Registry) Infos() []Info {
	sessions := g.List()
	out := make([]Info, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, s.Info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FleetRegistry merges the retired accumulator and then every remaining
// session's registry — live or finished — into a fresh one, in
// submission order. Because obs.Registry.Merge adds series-wise, the
// merge order is deterministic, and eviction folds sessions in through
// the same Merge before removing them, the roll-up's totals are exactly
// the ordered sum over every session ever submitted (the conservation
// property the load test asserts across retention-cap evictions). The
// whole merge holds g.mu so a concurrent sweep cannot double- or
// zero-count a session mid-roll-up.
func (g *Registry) FleetRegistry() (*obs.Registry, error) {
	merged := obs.NewRegistry()
	if g == nil {
		return merged, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := merged.Merge(g.retiredReg); err != nil {
		return nil, fmt.Errorf("session: roll-up of retired accumulator: %w", err)
	}
	for _, id := range g.order {
		s := g.sessions[id]
		if err := merged.Merge(s.Registry()); err != nil {
			return nil, fmt.Errorf("session: roll-up of %s: %w", s.ID(), err)
		}
	}
	return merged, nil
}

// FleetProfile merges the retired accumulator and then every remaining
// session's energy profile in submission order. Sessions that never ran
// hold no profile grid and merge inertly (profileLoaded returns nil), so
// a large queued backlog costs no memory here.
func (g *Registry) FleetProfile() *obs.Profile {
	merged := obs.NewProfile()
	if g == nil {
		return merged
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	merged.Merge(g.retiredProf)
	for _, id := range g.order {
		merged.Merge(g.sessions[id].profileLoaded())
	}
	return merged
}

// Drain stops accepting submissions, waits for queued and running
// sessions to finish, and releases the workers. Idempotent.
func (g *Registry) Drain() {
	if g == nil {
		return
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		g.wg.Wait()
		return
	}
	g.closed = true
	g.mu.Unlock()
	close(g.queue)
	g.wg.Wait()
}
