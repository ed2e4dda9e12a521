package session

import (
	"encoding/json"
	"sync"
	"time"

	"smores/internal/obs"
	"smores/internal/report"
)

// State is a session's lifecycle position.
type State int

const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Session is one submitted simulation run: a spec, a private
// observability surface (registry, progress, energy profile), and the
// delta-snapshot ring its stream consumers follow. The registry is
// written lock-free by the simulation and read atomically by the
// sampler; nothing a consumer does can reach the simulation.
type Session struct {
	id      string
	spec    report.RunSpecJSON
	seed    uint64 // the seed actually used (assigned when the spec's was 0)
	created time.Time

	reg  *obs.Registry
	prog *obs.Progress
	ring *Ring
	enc  *obs.DeltaEncoder        // owned by the sampler goroutine
	penc *obs.ProfileDeltaEncoder // ditto; created when the run starts

	mu       sync.Mutex
	prof     *obs.Profile // lazily allocated: a queued session holds no cell grid
	state    State
	err      error
	started  time.Time
	finished time.Time
	full     obs.DeltaSnapshot        // last full counter state, for stream joins/resyncs
	pfull    obs.ProfileDeltaSnapshot // last full profile state (Reset set once emitted)

	done chan struct{} // closed when the run finishes (either way)
}

func newSession(id string, spec report.RunSpecJSON, seed uint64, ringCap int) *Session {
	reg := obs.NewRegistry()
	return &Session{
		id:      id,
		spec:    spec,
		seed:    seed,
		created: time.Now(),
		reg:     reg,
		prog:    obs.NewProgress(0),
		ring:    NewRing(ringCap),
		enc:     obs.NewDeltaEncoder(reg),
		done:    make(chan struct{}),
	}
}

// ID returns the registry-assigned session identifier.
func (s *Session) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Seed returns the seed the run used — recorded even when auto-assigned
// so any session can be replayed offline.
func (s *Session) Seed() uint64 {
	if s == nil {
		return 0
	}
	return s.seed
}

// Spec returns the submitted run spec.
func (s *Session) Spec() report.RunSpecJSON {
	if s == nil {
		return report.RunSpecJSON{}
	}
	return s.spec
}

// Registry returns the session's private metrics registry.
func (s *Session) Registry() *obs.Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Progress returns the session's fleet progress tracker.
func (s *Session) Progress() *obs.Progress {
	if s == nil {
		return nil
	}
	return s.prog
}

// Profile returns the session's energy-attribution profile, allocating
// it on first use. The grid is ~0.6 MB of atomic cells, the only dense
// copy a session holds, so thousands of queued sessions must not each
// hold one before they run — the run path and the per-session /profile
// scrape allocate it, roll-ups use profileLoaded and treat never-run
// sessions as nil (inert merges).
func (s *Session) Profile() *obs.Profile {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.prof == nil {
		s.prof = obs.NewProfile()
	}
	return s.prof
}

// profileLoaded returns the profile only if it was ever allocated.
func (s *Session) profileLoaded() *obs.Profile {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prof
}

// Ring returns the session's delta-snapshot buffer.
func (s *Session) Ring() *Ring {
	if s == nil {
		return nil
	}
	return s.ring
}

// Done returns a channel closed when the run finishes (done or failed).
func (s *Session) Done() <-chan struct{} {
	if s == nil {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	return s.done
}

// State returns the lifecycle position and, for failed sessions, the
// run error.
//
//smores:partialok status getter: the State is meaningful alongside a non-nil lastErr
func (s *Session) State() (State, error) {
	if s == nil {
		return StateFailed, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state, s.err
}

// Full returns the most recent complete counter state as a Reset
// snapshot — what a stream consumer applies on join or after falling
// behind the ring's drop-oldest window.
func (s *Session) Full() obs.DeltaSnapshot {
	if s == nil {
		return obs.DeltaSnapshot{Reset: true}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.full.Points == nil {
		// Nothing emitted yet: an empty reset at seq 0 is a valid join
		// point (the first delta has seq 1).
		return obs.DeltaSnapshot{Session: s.id, Reset: true}
	}
	return s.full
}

func (s *Session) setFull(snap obs.DeltaSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.full = snap
}

// FullProfile returns the most recent complete profile state as a Reset
// snapshot — the profile analogue of Full, applied by ?include=profile
// stream consumers on join or after falling behind the ring.
func (s *Session) FullProfile() obs.ProfileDeltaSnapshot {
	if s == nil {
		return obs.ProfileDeltaSnapshot{Reset: true}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.pfull.Reset {
		// Nothing emitted yet: an empty reset at seq 0 is a valid join
		// point (the first profile delta has seq 1).
		return obs.ProfileDeltaSnapshot{Session: s.id, Reset: true}
	}
	return s.pfull
}

func (s *Session) setFullProfile(snap obs.ProfileDeltaSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pfull = snap
}

// finishedAt returns when the run completed (zero while queued/running).
func (s *Session) finishedAt() time.Time {
	if s == nil {
		return time.Time{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.finished
}

// Info is the session listing entry (GET /sessions).
type Info struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Label    string          `json:"label"`
	Seed     uint64          `json:"seed"`
	Spec     json.RawMessage `json:"spec"`
	Error    string          `json:"error,omitempty"`
	Apps     int             `json:"apps"`
	Accesses int64           `json:"accesses"`
	// Snapshots is the number of delta emissions so far; Dropped counts
	// ring evictions (the stream backpressure signal).
	Snapshots uint64  `json:"snapshots"`
	Dropped   int64   `json:"dropped_snapshots"`
	Fraction  float64 `json:"fraction"`
	Created   string  `json:"created"`
	Finished  string  `json:"finished,omitempty"`
}

// Info assembles the listing entry.
func (s *Session) Info() Info {
	if s == nil {
		return Info{State: "unknown"}
	}
	state, err := s.State()
	fleet, ferr := s.spec.Fleet()
	spec := s.spec
	spec.Seed = s.seed // echo the seed actually used
	accesses := spec.Accesses
	if accesses == 0 {
		accesses = report.DefaultAccesses
	}
	info := Info{
		ID:        s.id,
		State:     state.String(),
		Label:     s.spec.Label(),
		Seed:      s.seed,
		Spec:      json.RawMessage(spec.Canonical()),
		Apps:      len(fleet),
		Accesses:  accesses,
		Snapshots: s.Full().Seq,
		Dropped:   s.ring.Dropped(),
		Fraction:  s.prog.Snapshot().Fraction,
		Created:   s.created.UTC().Format(time.RFC3339),
	}
	if err != nil {
		info.Error = err.Error()
	} else if ferr != nil {
		info.Error = ferr.Error()
	}
	s.mu.Lock()
	if !s.finished.IsZero() {
		info.Finished = s.finished.UTC().Format(time.RFC3339)
	}
	s.mu.Unlock()
	return info
}

// run executes the session: spec → fleet runner with the session's
// observability attached, sampled into the ring at interval until the
// run completes, then a final full snapshot and ring close. It does not
// signal Done: the registry worker calls markDone once its own counters
// record the outcome, so a waiter on Done never reads stale counters.
func (s *Session) run(interval time.Duration) {
	s.mu.Lock()
	s.state = StateRunning
	s.started = time.Now()
	s.mu.Unlock()

	err := s.execute(interval)

	s.mu.Lock()
	if err != nil {
		s.state = StateFailed
		s.err = err
	} else {
		s.state = StateDone
	}
	s.finished = time.Now()
	s.mu.Unlock()
}

// markDone closes the Done channel; called once, after run.
func (s *Session) markDone() { close(s.done) }

func (s *Session) execute(interval time.Duration) error {
	spec, err := s.spec.RunSpec()
	if err != nil {
		s.finalize()
		return err
	}
	fleet, err := s.spec.Fleet()
	if err != nil {
		s.finalize()
		return err
	}
	spec.Seed = s.seed
	spec.Obs = s.reg
	spec.Profile = s.Profile() // first allocation for a queued session
	s.penc = obs.NewProfileDeltaEncoder(spec.Profile)
	s.prog.SetTotal(int64(len(fleet)))
	s.prog.SetPhase("running")

	stop := make(chan struct{})
	samplerDone := make(chan struct{})
	go s.sample(interval, stop, samplerDone)

	workers := s.spec.Workers
	if workers == 0 {
		workers = 1
	}
	_, runErr := report.RunFleetApps(fleet, spec, report.FleetOptions{
		Workers:  workers,
		Obs:      s.reg,
		Progress: s.prog,
	})
	close(stop)
	<-samplerDone
	if runErr != nil {
		s.prog.SetPhase("failed")
	} else {
		s.prog.SetPhase("done")
	}
	s.finalize()
	return runErr
}

// sample is the per-session sampler: on its own clock it turns registry
// state into delta snapshots and pushes them into the ring. This is the
// only goroutine touching the encoder; the simulation only ever writes
// atomic instruments.
func (s *Session) sample(interval time.Duration, stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.emit()
		case <-stop:
			return
		}
	}
}

// emit pushes one delta emission per snapshot kind (if anything
// changed) and refreshes the cached full states stream joiners copy.
func (s *Session) emit() {
	if snap, emitted := s.enc.Next(); emitted {
		snap.Session = s.id
		full := s.enc.Full()
		full.Session = s.id
		s.setFull(full)
		s.ring.Push(Item{Counters: snap})
	}
	if psnap, emitted := s.penc.Next(); emitted {
		psnap.Session = s.id
		pfull := s.penc.Full()
		pfull.Session = s.id
		s.setFullProfile(pfull)
		s.ring.Push(Item{Profile: &psnap})
	}
}

// finalize emits the last deltas, then pushes the complete final states
// as Reset+Final snapshots and closes the ring: every consumer —
// however far behind — converges on exactly the final values. The
// profile final precedes the counter final, so an ?include=profile
// follower has both by the time the counter Final terminates its
// stream. Afterwards the encoders are released — retained finished
// sessions keep only their registry, profile, and cached full
// snapshots. The profile encoder holds just the cells it emitted, so
// the profile grid is the one dense structure left.
func (s *Session) finalize() {
	s.emit()
	if s.penc != nil {
		pfull := s.penc.Full()
		pfull.Session = s.id
		pfull.Final = true
		s.setFullProfile(pfull)
		s.ring.Push(Item{Profile: &pfull})
	}
	full := s.enc.Full()
	full.Session = s.id
	full.Final = true
	s.setFull(full)
	s.ring.Push(Item{Counters: full})
	s.ring.Close()
	// Safe: the sampler has joined (or never started) on every path here,
	// and emit is never called again after the ring closes.
	s.enc, s.penc = nil, nil
}
