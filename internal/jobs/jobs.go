// Package jobs is streakd's durable async tier: submitted solves become
// jobs that survive daemon restarts. Every state transition is appended to
// a pluggable Store — in-memory for tests, for production a checksummed
// fsync'd WAL on the shared segment log (internal/seglog) — and replayed
// at boot, so a crash mid-solve recovers the job
// instead of dropping it: RUNNING jobs found in the journal are marked
// INTERRUPTED and re-enqueued up to a per-job retry budget with
// exponential backoff + jitter.
//
// The package is routing-agnostic: the Manager executes an injected Runner
// and classifies its failures only as retryable (the default — timeouts,
// panics, interruptions) or terminal (anything wrapped with Terminal, e.g.
// an invalid design or an exhausted fallback chain). The chaos seams are
// the jobs.store.append, jobs.store.replay and jobs.run fault points.
//
// State machine:
//
//	PENDING ──▶ RUNNING ──▶ SUCCEEDED
//	   ▲           │ ├────▶ FAILED     (terminal error, or retry budget spent)
//	   │           │ ├────▶ CANCELED   (client DELETE)
//	   │(retry,    │ └────▶ INTERRUPTED (daemon stop/crash mid-run)
//	   │ backoff)  │              │
//	   └───────────┴──────────────┘ (re-enqueued at boot while attempts remain)
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// State is a job's lifecycle state.
type State string

const (
	// Pending jobs wait for a worker (first run or scheduled retry).
	Pending State = "PENDING"
	// Running jobs hold a worker and are solving.
	Running State = "RUNNING"
	// Interrupted jobs were RUNNING when the daemon stopped or crashed;
	// at boot they are re-enqueued while retry budget remains.
	Interrupted State = "INTERRUPTED"
	// Succeeded jobs finished with a result.
	Succeeded State = "SUCCEEDED"
	// Failed jobs exhausted their retry budget or hit a terminal error.
	Failed State = "FAILED"
	// Canceled jobs were canceled by the client.
	Canceled State = "CANCELED"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == Succeeded || s == Failed || s == Canceled
}

// Spec is a job's payload: the validated design plus per-job solve
// parameters, persisted verbatim in the submit record.
type Spec struct {
	// Design is the validated design JSON.
	Design json.RawMessage `json:"design"`
	// Method and Audit override the daemon defaults ("" keeps them).
	Method string `json:"method,omitempty"`
	Audit  string `json:"audit,omitempty"`
	// Stats asks the result to carry the run's telemetry report.
	Stats bool `json:"stats,omitempty"`
	// NoCache opts the job out of the content-addressed solve cache
	// (?cache=off at submit time). Additive, so WAL records from before
	// the field existed replay as cache-enabled.
	NoCache bool `json:"no_cache,omitempty"`
}

// Runner executes one job attempt. rec is the attempt's live telemetry
// recorder (the events stream reads it while the attempt runs); attempt is
// 1-based. A nil error with a result marks the job SUCCEEDED; wrap
// non-retryable failures with Terminal.
type Runner func(ctx context.Context, spec Spec, rec *obs.Recorder, attempt int) (json.RawMessage, error)

// Terminal marks err non-retryable: the job fails immediately instead of
// consuming its retry budget (invalid design, exhausted fallback chain,
// strict-audit violation).
func Terminal(err error) error {
	if err == nil {
		return nil
	}
	return &terminalError{err: err}
}

// IsTerminal reports whether err (or anything it wraps) was marked with
// Terminal.
func IsTerminal(err error) bool {
	var te *terminalError
	return errors.As(err, &te)
}

type terminalError struct{ err error }

func (e *terminalError) Error() string { return e.err.Error() }
func (e *terminalError) Unwrap() error { return e.err }

// Errors returned by Manager methods.
var (
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrDraining reports a submit refused because the manager is draining.
	ErrDraining = errors.New("jobs: manager is draining")
)

// Config tunes a Manager. Store and Run are required.
type Config struct {
	// Store persists state transitions and replays them at boot.
	Store Store
	// Run executes one job attempt.
	Run Runner
	// Workers bounds concurrent job executions. Default 2.
	Workers int
	// MaxAttempts bounds executions per job (first run + retries).
	// Default 3.
	MaxAttempts int
	// Backoff is the base retry delay, doubled per attempt. Default 2s.
	Backoff time.Duration
	// MaxBackoff caps the retry delay. Default 1m.
	MaxBackoff time.Duration
	// BaseContext roots every execution context — the seam for fault
	// plans. Default context.Background().
	BaseContext context.Context
	// Logf receives replay and append diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = 2 * time.Second
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Minute
	}
	if c.BaseContext == nil {
		c.BaseContext = context.Background()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// View is a job snapshot for API responses and event streams.
type View struct {
	// ID is the job's identifier.
	ID string `json:"id"`
	// State is the lifecycle state at snapshot time.
	State State `json:"state"`
	// Attempts counts executions started so far; MaxAttempts is the
	// budget.
	Attempts    int `json:"attempts"`
	MaxAttempts int `json:"max_attempts"`
	// Created and Updated bound the job's lifetime so far.
	Created time.Time `json:"created"`
	Updated time.Time `json:"updated"`
	// Error is the most recent failure text ("" when none).
	Error string `json:"error,omitempty"`
	// Result is the marshaled solve result (SUCCEEDED only).
	Result json.RawMessage `json:"result,omitempty"`
}

// job is the manager's mutable record of one job.
type job struct {
	id          string
	idemKey     string
	spec        Spec
	state       State
	attempt     int
	maxAttempts int
	created     time.Time
	updated     time.Time
	errMsg      string
	result      json.RawMessage

	cancel     context.CancelFunc // non-nil while RUNNING
	userCancel bool               // client asked for cancellation
	rec        *obs.Recorder      // live recorder of the current attempt
	subs       []chan View
}

func (j *job) view() View {
	return View{
		ID:          j.id,
		State:       j.state,
		Attempts:    j.attempt,
		MaxAttempts: j.maxAttempts,
		Created:     j.created,
		Updated:     j.updated,
		Error:       j.errMsg,
		Result:      j.result,
	}
}

// Stats is the manager's live snapshot for health surfaces.
type Stats struct {
	// Ready is false while boot replay is still running.
	Ready bool `json:"ready"`
	// Draining reports BeginDrain was called.
	Draining bool `json:"draining"`
	// Jobs counts every tracked job; Running and Queued split the live
	// ones (Queued = PENDING or INTERRUPTED, whether runnable now or
	// waiting out a backoff).
	Jobs    int `json:"jobs"`
	Running int `json:"running"`
	Queued  int `json:"queued"`
	// Counters is the lifecycle counter set (jobs.submitted,
	// jobs.retries, jobs.recovered, jobs.replay.skipped, ...).
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Manager owns the job table, the worker pool and the store. Create with
// New, then Start once; submit/query from any goroutine.
type Manager struct {
	cfg  Config
	rec  *obs.Recorder // lifecycle counters, independent of any one job
	base context.Context

	hardCtx  context.Context // canceled to abort running jobs
	hardStop context.CancelFunc

	ready    chan struct{} // closed when boot replay finished
	draining chan struct{} // closed by BeginDrain
	drained  atomic.Bool
	running  atomic.Int64

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*job
	byIdem   map[string]string
	runnable []string // job IDs due now, FIFO
	started  bool

	// jitter is the manager's private backoff-jitter source. Sharing the
	// global math/rand source across managers serializes every concurrent
	// worker's retry scheduling on one lock and, worse, lets co-located
	// managers interleave one deterministic stream — per-manager seeding
	// decorrelates their retry storms.
	jitterMu sync.Mutex
	jitter   *mrand.Rand
}

// New builds a manager. Call Start to replay the store and begin
// executing.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:      cfg,
		rec:      obs.NewRecorder(),
		base:     cfg.BaseContext,
		ready:    make(chan struct{}),
		draining: make(chan struct{}),
		jobs:     make(map[string]*job),
		byIdem:   make(map[string]string),
	}
	m.cond = sync.NewCond(&m.mu)
	m.jitter = mrand.New(mrand.NewSource(cryptoSeed()))
	// Executions root at BaseContext so fault plans (and other
	// context-carried seams) reach the runner; hardStop cancels them all.
	m.hardCtx, m.hardStop = context.WithCancel(cfg.BaseContext)
	return m
}

// cryptoSeed draws a fresh seed for the manager's jitter source.
func cryptoSeed() int64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: reading jitter seed: %v", err))
	}
	return int64(binary.LittleEndian.Uint64(b[:]))
}

// Start replays the store in the background — recovering persisted jobs —
// then spawns the worker pool and marks the manager ready. Readiness
// gates every other method, so callers may use the manager immediately;
// they just wait out the replay.
func (m *Manager) Start() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	go func() {
		m.replay()
		for i := 0; i < m.cfg.Workers; i++ {
			go m.worker()
		}
		close(m.ready)
	}()
}

// Ready reports whether boot replay has finished.
func (m *Manager) Ready() bool {
	select {
	case <-m.ready:
		return true
	default:
		return false
	}
}

// awaitReady blocks until replay finishes or ctx expires.
func (m *Manager) awaitReady(ctx context.Context) error {
	select {
	case <-m.ready:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// replay rebuilds the job table from the store and re-enqueues unfinished
// work: PENDING jobs go straight back to the queue; RUNNING/INTERRUPTED
// jobs — the daemon died or stopped under them — are marked INTERRUPTED
// (persisted) and re-enqueued while their retry budget lasts.
func (m *Manager) replay() {
	records := 0
	skipped, err := m.cfg.Store.Replay(m.base, func(rec Record) error {
		records++
		m.applyRecord(rec)
		return nil
	})
	if err != nil {
		// A replay failure degrades to whatever was recovered before it —
		// the daemon must boot even over a damaged journal.
		m.cfg.Logf("jobs: WAL replay failed after %d records: %v", records, err)
	}
	m.rec.Add(obs.CounterJobsReplayRecords, int64(records))
	m.rec.Add(obs.CounterJobsReplaySkipped, int64(skipped))
	if skipped > 0 {
		m.cfg.Logf("jobs: WAL replay skipped %d unreadable record(s)", skipped)
	}

	m.mu.Lock()
	var interrupted, requeue []*job
	for _, j := range m.jobs {
		switch j.state {
		case Pending:
			requeue = append(requeue, j)
		case Running, Interrupted:
			interrupted = append(interrupted, j)
		}
	}
	m.mu.Unlock()

	now := time.Now()
	for _, j := range interrupted {
		m.rec.Add(obs.CounterJobsRecovered, 1)
		if j.attempt >= j.maxAttempts {
			m.mu.Lock()
			j.state = Failed
			j.errMsg = fmt.Sprintf("interrupted on attempt %d/%d; retry budget exhausted", j.attempt, j.maxAttempts)
			j.updated = now
			m.mu.Unlock()
			m.append(Record{JobID: j.id, State: Failed, Time: now, Attempt: j.attempt, Error: j.errMsg})
			m.rec.Add(obs.CounterJobsFailed, 1)
			continue
		}
		m.mu.Lock()
		j.state = Interrupted
		j.errMsg = fmt.Sprintf("interrupted on attempt %d (daemon restart)", j.attempt)
		j.updated = now
		m.mu.Unlock()
		m.append(Record{JobID: j.id, State: Interrupted, Time: now, Attempt: j.attempt, Error: j.errMsg})
		m.rec.Add(obs.CounterJobsInterrupted, 1)
		requeue = append(requeue, j)
	}
	for _, j := range requeue {
		m.enqueue(j.id)
	}
	if n := len(requeue); n > 0 || len(interrupted) > 0 {
		m.cfg.Logf("jobs: replay recovered %d runnable job(s) (%d interrupted mid-run)", n, len(interrupted))
	}
}

// applyRecord folds one replayed record into the job table.
func (m *Manager) applyRecord(rec Record) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[rec.JobID]
	if j == nil {
		if rec.Spec == nil {
			// A transition for a job whose submit record was lost (torn
			// tail took it): nothing to recover.
			m.cfg.Logf("jobs: WAL replay: dropping orphan transition for %s (%s)", rec.JobID, rec.State)
			return
		}
		j = &job{
			id:          rec.JobID,
			idemKey:     rec.IdemKey,
			spec:        *rec.Spec,
			maxAttempts: m.cfg.MaxAttempts,
			created:     rec.Time,
		}
		m.jobs[j.id] = j
		if j.idemKey != "" {
			m.byIdem[j.idemKey] = j.id
		}
	}
	j.state = rec.State
	j.updated = rec.Time
	if rec.Attempt > 0 {
		j.attempt = rec.Attempt
	}
	j.errMsg = rec.Error
	if len(rec.Result) > 0 {
		j.result = rec.Result
	}
}

// Submit registers a new job and enqueues it. A repeated Idempotency-Key
// returns the existing job (existed=true) instead of duplicating work.
// Blocks until boot replay finishes so duplicates cannot slip past a
// not-yet-recovered key.
func (m *Manager) Submit(ctx context.Context, spec Spec, idemKey string) (View, bool, error) {
	if err := m.awaitReady(ctx); err != nil {
		return View{}, false, err
	}
	if m.isDraining() {
		return View{}, false, ErrDraining
	}
	now := time.Now()
	m.mu.Lock()
	if idemKey != "" {
		if id, ok := m.byIdem[idemKey]; ok {
			v := m.jobs[id].view()
			m.mu.Unlock()
			m.rec.Add(obs.CounterJobsDedup, 1)
			return v, true, nil
		}
	}
	j := &job{
		id:          newJobID(),
		idemKey:     idemKey,
		spec:        spec,
		state:       Pending,
		maxAttempts: m.cfg.MaxAttempts,
		created:     now,
		updated:     now,
	}
	m.jobs[j.id] = j
	if idemKey != "" {
		m.byIdem[idemKey] = j.id
	}
	v := j.view()
	m.mu.Unlock()

	if err := m.cfg.Store.Append(m.base, Record{
		JobID: j.id, State: Pending, Time: now, IdemKey: idemKey, Spec: &spec,
	}); err != nil {
		// Without a durable submit record the job would silently vanish on
		// restart; refuse it instead.
		m.mu.Lock()
		delete(m.jobs, j.id)
		if idemKey != "" {
			delete(m.byIdem, idemKey)
		}
		m.mu.Unlock()
		m.rec.Add(obs.CounterJobsAppendErrors, 1)
		return View{}, false, fmt.Errorf("jobs: persisting submit: %w", err)
	}
	m.rec.Add(obs.CounterJobsSubmitted, 1)
	m.enqueue(j.id)
	return v, false, nil
}

// Get returns a job snapshot.
func (m *Manager) Get(ctx context.Context, id string) (View, error) {
	if err := m.awaitReady(ctx); err != nil {
		return View{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return View{}, ErrNotFound
	}
	return j.view(), nil
}

// Cancel stops a job: a queued job is canceled immediately, a running one
// has its context canceled and transitions once the attempt unwinds.
// Canceling a terminal job is a no-op returning its final view.
func (m *Manager) Cancel(ctx context.Context, id string) (View, error) {
	if err := m.awaitReady(ctx); err != nil {
		return View{}, err
	}
	m.mu.Lock()
	j := m.jobs[id]
	if j == nil {
		m.mu.Unlock()
		return View{}, ErrNotFound
	}
	switch {
	case j.state.Terminal():
		v := j.view()
		m.mu.Unlock()
		return v, nil
	case j.state == Running:
		j.userCancel = true
		cancel := j.cancel
		v := j.view()
		m.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return v, nil
	default: // Pending / Interrupted: cancel in place, counted first.
		m.rec.Add(obs.CounterJobsCanceled, 1)
		j.state = Canceled
		j.updated = time.Now()
		v := j.view()
		m.mu.Unlock()
		m.append(Record{JobID: id, State: Canceled, Time: v.Updated, Attempt: v.Attempts})
		m.publish(v)
		return v, nil
	}
}

// Watch subscribes to a job's state transitions. The returned channel
// receives a View per transition (buffered; slow readers miss
// intermediate states, never the terminal one if they keep reading).
// stop unsubscribes.
func (m *Manager) Watch(ctx context.Context, id string) (<-chan View, func(), error) {
	if err := m.awaitReady(ctx); err != nil {
		return nil, nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil, nil, ErrNotFound
	}
	ch := make(chan View, 16)
	j.subs = append(j.subs, ch)
	stop := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		for i, c := range j.subs {
			if c == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				break
			}
		}
	}
	return ch, stop, nil
}

// LiveReport snapshots the telemetry of a job's in-flight attempt — the
// feed behind GET /jobs/{id}/events progress frames. ok is false when the
// job is unknown or not currently running.
func (m *Manager) LiveReport(id string) (obs.Report, bool) {
	m.mu.Lock()
	j := m.jobs[id]
	var rec *obs.Recorder
	if j != nil && j.state == Running {
		rec = j.rec
	}
	m.mu.Unlock()
	if rec == nil {
		return obs.Report{}, false
	}
	return rec.Report(), true
}

// StatsSnapshot returns the live manager statistics.
func (m *Manager) StatsSnapshot() Stats {
	st := Stats{
		Ready:    m.Ready(),
		Draining: m.isDraining(),
		Counters: m.rec.Counters(),
	}
	m.mu.Lock()
	st.Jobs = len(m.jobs)
	for _, j := range m.jobs {
		switch j.state {
		case Running:
			st.Running++
		case Pending, Interrupted:
			st.Queued++
		}
	}
	m.mu.Unlock()
	return st
}

// BeginDrain stops workers from picking up new PENDING work: in-flight
// attempts finish, everything queued stays persisted for the next boot.
// Idempotent.
func (m *Manager) BeginDrain() {
	if m.drained.CompareAndSwap(false, true) {
		close(m.draining)
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	}
}

// Drain is the graceful-shutdown sequence: stop picking up work, wait for
// running attempts to finish, and — if ctx expires first — cancel them
// and wait for the unwind. Interrupted attempts persist as INTERRUPTED,
// so the next boot retries them.
func (m *Manager) Drain(ctx context.Context) error {
	m.BeginDrain()
	if m.awaitIdle(ctx) == nil {
		return nil
	}
	m.hardStop()
	final, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.awaitIdle(final); err != nil {
		return fmt.Errorf("jobs: %d attempts still running after hard cancel", m.running.Load())
	}
	return ctx.Err()
}

// awaitIdle polls until no attempt is executing.
func (m *Manager) awaitIdle(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if m.running.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

func (m *Manager) isDraining() bool {
	select {
	case <-m.draining:
		return true
	default:
		return false
	}
}

// enqueue makes the job runnable now. During a drain the job stays in its
// persisted state instead — the next boot picks it up.
func (m *Manager) enqueue(id string) {
	if m.isDraining() {
		return
	}
	m.mu.Lock()
	m.runnable = append(m.runnable, id)
	m.cond.Signal()
	m.mu.Unlock()
}

// worker executes runnable jobs until the manager drains.
func (m *Manager) worker() {
	for {
		m.mu.Lock()
		for len(m.runnable) == 0 && !m.isDraining() {
			m.cond.Wait()
		}
		if m.isDraining() {
			m.mu.Unlock()
			return
		}
		id := m.runnable[0]
		m.runnable = m.runnable[1:]
		m.mu.Unlock()
		m.execute(id)
	}
}

// execute runs one attempt of the job and applies the outcome transition.
func (m *Manager) execute(id string) {
	m.mu.Lock()
	j := m.jobs[id]
	if j == nil || (j.state != Pending && j.state != Interrupted) {
		// Canceled (or otherwise finished) while queued.
		m.mu.Unlock()
		return
	}
	j.attempt++
	j.state = Running
	j.updated = time.Now()
	ctx, cancel := context.WithCancel(m.hardCtx)
	j.cancel = cancel
	rec := obs.NewRecorder()
	j.rec = rec
	attempt, spec := j.attempt, j.spec
	v := j.view()
	m.mu.Unlock()

	m.running.Add(1)
	defer m.running.Add(-1)
	m.append(Record{JobID: id, State: Running, Time: v.Updated, Attempt: attempt})
	m.rec.Add(obs.CounterJobsStarted, 1)
	if attempt > 1 {
		m.rec.Add(obs.CounterJobsRetries, 1)
	}
	m.publish(v)

	result, err := m.runAttempt(ctx, spec, rec, attempt)
	cancel()

	m.mu.Lock()
	j.cancel = nil
	j.rec = nil
	userCancel := j.userCancel
	m.mu.Unlock()

	// Each outcome is counted before finish makes it visible, so a watcher
	// that sees the new state also reads its counter.
	now := time.Now()
	switch {
	case err == nil:
		m.rec.Add(obs.CounterJobsSucceeded, 1)
		m.finish(j, Succeeded, "", result, now)
	case userCancel:
		m.rec.Add(obs.CounterJobsCanceled, 1)
		m.finish(j, Canceled, "canceled by client", nil, now)
	case m.hardCtx.Err() != nil:
		// The manager is being torn down: persist the interruption so the
		// next boot retries the job, exactly like a crash would.
		m.rec.Add(obs.CounterJobsInterrupted, 1)
		m.finish(j, Interrupted, fmt.Sprintf("interrupted on attempt %d (shutdown): %v", attempt, err), nil, now)
	case IsTerminal(err):
		m.rec.Add(obs.CounterJobsFailed, 1)
		m.finish(j, Failed, err.Error(), nil, now)
	case attempt >= m.maxAttemptsOf(j):
		m.rec.Add(obs.CounterJobsFailed, 1)
		m.finish(j, Failed, fmt.Sprintf("attempt %d/%d: %v (retry budget exhausted)", attempt, m.maxAttemptsOf(j), err), nil, now)
	default:
		// Retryable: back off exponentially with jitter, persist the
		// PENDING transition so a restart retries without waiting.
		delay := m.backoff(attempt)
		m.finish(j, Pending, fmt.Sprintf("attempt %d/%d: %v (retrying in %s)", attempt, m.maxAttemptsOf(j), err, delay.Round(time.Millisecond)), nil, now)
		time.AfterFunc(delay, func() { m.enqueue(id) })
	}
}

// runAttempt isolates one execution: the jobs.run fault point fires first,
// and a panic anywhere below — the runner, the solve, injected chaos —
// becomes a retryable error instead of killing the worker.
func (m *Manager) runAttempt(ctx context.Context, spec Spec, rec *obs.Recorder, attempt int) (result json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobs: attempt panicked: %v", r)
		}
	}()
	if ferr := faultinject.Fire(ctx, faultinject.JobsRun); ferr != nil {
		return nil, ferr
	}
	return m.cfg.Run(ctx, spec, rec, attempt)
}

// finish applies a transition, persists it and notifies watchers.
func (m *Manager) finish(j *job, st State, errMsg string, result json.RawMessage, now time.Time) {
	m.mu.Lock()
	j.state = st
	j.errMsg = errMsg
	j.updated = now
	if result != nil {
		j.result = result
	}
	v := j.view()
	m.mu.Unlock()
	m.append(Record{JobID: j.id, State: st, Time: now, Attempt: v.Attempts, Error: errMsg, Result: result})
	m.publish(v)
}

// append persists a transition record. Failures degrade durability, not
// availability: the in-memory state stands, the error is logged and
// counted.
func (m *Manager) append(rec Record) {
	if err := m.cfg.Store.Append(m.base, rec); err != nil {
		m.rec.Add(obs.CounterJobsAppendErrors, 1)
		m.cfg.Logf("jobs: persisting %s transition for %s: %v", rec.State, rec.JobID, err)
	}
}

// publish fans a snapshot out to the job's watchers without blocking.
func (m *Manager) publish(v View) {
	m.mu.Lock()
	j := m.jobs[v.ID]
	if j == nil {
		m.mu.Unlock()
		return
	}
	subs := append([]chan View(nil), j.subs...)
	m.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- v:
		default:
		}
	}
}

func (m *Manager) maxAttemptsOf(j *job) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return j.maxAttempts
}

// backoff is the retry delay after the given (1-based) failed attempt:
// Backoff·2^(attempt-1), capped at MaxBackoff, with ±25% jitter so
// recovered fleets do not retry in lockstep.
func (m *Manager) backoff(attempt int) time.Duration {
	d := m.cfg.Backoff
	for i := 1; i < attempt && d < m.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > m.cfg.MaxBackoff {
		d = m.cfg.MaxBackoff
	}
	if q := int64(d / 4); q > 0 {
		m.jitterMu.Lock()
		d += time.Duration(m.jitter.Int63n(2*q) - q)
		m.jitterMu.Unlock()
	}
	return d
}

// newJobID returns a fresh 16-hex-char job identifier.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: reading random ID: %v", err))
	}
	return hex.EncodeToString(b[:])
}
