// Package server implements streakd, the hardened HTTP/JSON routing
// service around the Streak flow. Each request carries a complete
// signal.Design and costs a bounded solve, so the serving layer is built
// around admission control rather than raw throughput:
//
//   - a semaphore bounds concurrent solves (MaxInflight);
//   - requests beyond that wait in a bounded, deadline-aware queue — when
//     the queue is full or the wait budget expires the request is shed
//     with 429 and a Retry-After hint instead of piling up;
//   - every admitted solve runs under its own deadline (SolveTimeout)
//     threaded into the pipeline's context, so one pathological design
//     cannot wedge a worker;
//   - panics inside a request — including injected chaos faults — are
//     isolated into 500s without killing the process;
//   - shutdown is graceful: BeginDrain stops admission (readyz flips to
//     503), in-flight solves finish, and Drain cancels stragglers that
//     outlive the drain budget.
//
// /healthz reports liveness with queue statistics; /readyz reports
// admission capacity and is meant for load-balancer rotation.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/signal"
	"repro/internal/solvecache"
	"repro/internal/telemetry"
)

// Config tunes the service. The zero value is usable: every field has a
// sane default applied by New.
type Config struct {
	// MaxInflight bounds concurrent solves. Default 4.
	MaxInflight int
	// QueueDepth bounds how many requests may wait for a solve slot beyond
	// MaxInflight; excess requests are shed immediately. Default
	// 2*MaxInflight.
	QueueDepth int
	// QueueWait bounds how long a queued request may wait for a slot
	// before it is shed. Default 5s.
	QueueWait time.Duration
	// SolveTimeout is the per-request solve deadline threaded into the
	// routing pipeline's context. Default 60s.
	SolveTimeout time.Duration
	// MaxBodyBytes bounds the request body. Default 32 MiB.
	MaxBodyBytes int64
	// Options is the base flow configuration; per-request query parameters
	// may override the method and audit mode.
	Options core.Options
	// AuditConfigured marks Options.Audit as deliberate. Without it a zero
	// audit mode (AuditOff) is upgraded to AuditWarn, so by default every
	// response carries an independent legality verdict; set it to serve
	// with the audit genuinely off (clients can still ask per request).
	AuditConfigured bool
	// BaseContext, when non-nil, is the root context every request derives
	// from — the seam for fault-injection plans and telemetry recorders in
	// tests and chaos runs. Default context.Background().
	BaseContext context.Context
	// JobStore, when non-nil, enables the durable async tier: POST /jobs,
	// GET /jobs/{id}, DELETE /jobs/{id} and GET /jobs/{id}/events. Jobs
	// persist through the store and recover on restart (see
	// internal/jobs).
	JobStore jobs.Store
	// JobRetries bounds execution attempts per async job. Default 3.
	JobRetries int
	// JobWorkers bounds concurrent async job solves, independent of the
	// synchronous tier's MaxInflight. Default 2.
	JobWorkers int
	// JobBackoff is the base retry backoff for failed job attempts
	// (doubled per attempt, jittered). Default 2s.
	JobBackoff time.Duration
	// Logf receives job-tier diagnostics (WAL replay skips, append
	// failures). nil discards them.
	Logf func(format string, args ...any)
	// CacheSize bounds the content-addressed solve cache shared by the
	// synchronous and async tiers (entries; see internal/solvecache). Zero
	// means solvecache.DefaultSize; negative disables caching entirely.
	// Individual requests can opt out with ?cache=off.
	CacheSize int
	// Telemetry, when non-nil, enables the telemetry lake: the ingest and
	// query endpoints mount under /telemetry/v1/ (dashboard at
	// /debug/telemetry), and every solve — synchronous and async — pushes
	// a distilled report through the lake's non-blocking client. nil
	// disables the lake; the solve path then pays one nil check.
	Telemetry *telemetry.Service
	// Recorder, when non-nil, receives every accepted /route and /jobs
	// request (path, raw query, canonical design JSON) for record/replay —
	// streakd -record-dir wires a capture ring here (internal/scenario).
	// Recording is best-effort: errors go to Logf and never fail the
	// request. Only bodies that passed validation are recorded, after
	// decode and before admission, so a captured stream replays cleanly
	// even when the live request was ultimately shed.
	Recorder RequestRecorder
}

// RequestRecorder is the seam between the serving tier and the
// record/replay harness. Implementations must be safe for concurrent use.
type RequestRecorder interface {
	Record(path, query string, body []byte) error
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.MaxInflight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 5 * time.Second
	}
	if c.SolveTimeout <= 0 {
		c.SolveTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.BaseContext == nil {
		c.BaseContext = context.Background()
	}
	if !c.AuditConfigured && c.Options.Audit == core.AuditOff {
		c.Options.Audit = core.AuditWarn
	}
	return c
}

// Server is the streakd request handler plus its admission state.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	jobs   *jobs.Manager      // nil when Config.JobStore is nil
	solver *solvecache.Solver // nil when Config.CacheSize < 0
	agg    *obs.Recorder      // process-lifetime solver counter aggregate (/metrics)

	sem      chan struct{} // solve slots; len == inflight
	draining chan struct{} // closed by BeginDrain
	drained  atomic.Bool   // BeginDrain called (idempotence guard)
	hardCtx  context.Context
	hardStop context.CancelFunc

	waiting  atomic.Int64 // requests queued for a slot
	inflight atomic.Int64 // requests holding a slot
	served   atomic.Int64 // 2xx responses
	shed     atomic.Int64 // 429 responses
	failed   atomic.Int64 // 5xx responses
	panics   atomic.Int64 // panics isolated by the request guard
}

// New builds a server from the config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		agg:      obs.NewRecorder(),
		sem:      make(chan struct{}, cfg.MaxInflight),
		draining: make(chan struct{}),
	}
	if cfg.CacheSize >= 0 {
		s.solver = solvecache.NewSolver(solvecache.NewCache(cfg.CacheSize))
	}
	s.hardCtx, s.hardStop = context.WithCancel(cfg.BaseContext)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /route", s.guard(s.handleRoute))
	s.mux.HandleFunc("GET /healthz", s.guard(s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.guard(s.handleReadyz))
	s.mux.HandleFunc("GET /metrics", s.guard(s.handleMetrics))
	if cfg.Telemetry != nil {
		cfg.Telemetry.Register(s.mux, s.guard)
	}
	if cfg.JobStore != nil {
		s.jobs = jobs.New(jobs.Config{
			Store:       cfg.JobStore,
			Run:         s.runJob,
			Workers:     cfg.JobWorkers,
			MaxAttempts: cfg.JobRetries,
			Backoff:     cfg.JobBackoff,
			BaseContext: cfg.BaseContext,
			Logf:        cfg.Logf,
		})
		s.mux.HandleFunc("POST /jobs", s.guard(s.handleJobSubmit))
		s.mux.HandleFunc("GET /jobs/{id}", s.guard(s.handleJobGet))
		s.mux.HandleFunc("DELETE /jobs/{id}", s.guard(s.handleJobCancel))
		s.mux.HandleFunc("GET /jobs/{id}/events", s.guard(s.handleJobEvents))
		s.jobs.Start()
	}
	return s
}

// Jobs returns the async tier's manager (nil when the tier is disabled).
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// RouteResponse is the body of a successful POST /route.
type RouteResponse struct {
	// Design echoes the routed design's name.
	Design string `json:"design"`
	// Solver names the rung that produced the assignment.
	Solver string `json:"solver"`
	// Degraded is true when a fallback rung — not the requested method —
	// produced the result.
	Degraded bool `json:"degraded,omitempty"`
	// TimedOut reports that a time limit truncated the solve.
	TimedOut bool `json:"timed_out,omitempty"`
	// Attempts lists failed fallback rungs, in order.
	Attempts []core.Attempt `json:"attempts,omitempty"`
	// Metrics is the evaluated result row (Route %, WL, Avg(Reg), ...).
	Metrics metrics.Metrics `json:"metrics"`
	// AuditOK is the independent legality verdict (absent in audit=off).
	AuditOK *bool `json:"audit_ok,omitempty"`
	// Audit carries the violation list when the audit ran dirty.
	Audit *audit.Report `json:"audit,omitempty"`
	// Cache labels how the solve was served: "hit", "incremental", "cold",
	// "cold-fallback" or "bypass" (see solvecache.Outcome). Empty when the
	// cache is disabled or the request opted out with ?cache=off.
	Cache string `json:"cache,omitempty"`
	// Stats is the run's telemetry report (only with ?stats=1).
	Stats *obs.Report `json:"stats,omitempty"`
	// ElapsedMS is the server-side wall clock of the whole request.
	ElapsedMS int64 `json:"elapsed_ms"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	// Error describes what went wrong.
	Error string `json:"error"`
}

// guard wraps a handler with panic isolation: a panic anywhere in the
// request path — solver bug, injected fault, decode edge case — becomes a
// 500 response and the process keeps serving.
func (s *Server) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.panics.Add(1)
				s.failed.Add(1)
				// The stack is server-side diagnostics; the client only
				// learns that the request died.
				debug.PrintStack()
				writeJSON(w, http.StatusInternalServerError,
					ErrorResponse{Error: fmt.Sprintf("internal: request handler panicked: %v", v)})
			}
		}()
		h(w, r)
	}
}

// handleRoute is POST /route: decode+validate, admit, solve, respond.
func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	opt, err := s.requestOptions(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}

	// Decode and validate before admission: a malformed design must not
	// consume a solve slot. ReadJSON runs the full structural validation,
	// so the 400 names the offending group/bit.
	d, err := signal.ReadJSON(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}

	s.recordRequest("/route", r.URL.RawQuery, d)

	release, status, admitErr := s.admit(r.Context())
	if admitErr != nil {
		switch status {
		case http.StatusTooManyRequests:
			s.shed.Add(1)
			w.Header().Set("Retry-After", s.retryAfter())
		case http.StatusServiceUnavailable:
			// Draining (or a canceled queue wait) is as retryable as a shed:
			// the instance restarts or rotates out, so tell clients when to
			// come back instead of letting them treat 503 as an outage.
			w.Header().Set("Retry-After", s.retryAfter())
		}
		writeJSON(w, status, ErrorResponse{Error: admitErr.Error()})
		return
	}
	defer release()

	// The solve context: derived from hardCtx so a hard drain cancels
	// stragglers, carrying the base context's fault plan, bounded by the
	// per-request deadline, and canceled when the client disconnects.
	ctx, cancel := context.WithTimeout(s.hardCtx, s.cfg.SolveTimeout)
	defer cancel()
	stop := context.AfterFunc(r.Context(), cancel)
	defer stop()

	rec := obs.NewRecorder()
	rec.SetLabel("bench", d.Name)
	rec.SetLabel("method", opt.Method.String())
	ctx = obs.WithRecorder(ctx, rec)

	res, outcome, err := s.solve(ctx, r, d, opt)
	// Every solve that ran reaches the lake and /metrics, failed ones
	// included, so strict-audit rejections and exhausted chains show up in
	// the series.
	s.recordSolve(rec, res, time.Since(start), "streakd")
	if err != nil {
		s.respondError(w, r, res, err, start)
		return
	}
	if res.TimedOut && res.Metrics.RoutedGroups == 0 {
		s.failed.Add(1)
		writeJSON(w, http.StatusGatewayTimeout,
			ErrorResponse{Error: fmt.Sprintf("solve deadline exceeded before any group routed (budget %s)", s.cfg.SolveTimeout)})
		return
	}

	resp := routeResponse(d.Name, res, start)
	resp.Cache = string(outcome)
	if r.URL.Query().Get("stats") == "1" {
		rep := rec.Report()
		if res.Usage != nil {
			rep.Congestion = obs.SnapshotCongestion(res.Usage, 16)
		}
		resp.Stats = &rep
	}
	s.served.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// solve runs one request's solve, through the content-addressed cache
// unless it is disabled or the request opted out with ?cache=off. Shared
// by the synchronous path and (with the opt-out persisted on the job spec)
// the async executor via solveSpec.
func (s *Server) solve(ctx context.Context, r *http.Request, d *signal.Design, opt core.Options) (*core.Result, solvecache.Outcome, error) {
	return s.solveSpec(ctx, d, opt, r.URL.Query().Get("cache") == "off")
}

func (s *Server) solveSpec(ctx context.Context, d *signal.Design, opt core.Options, noCache bool) (*core.Result, solvecache.Outcome, error) {
	if s.solver == nil || noCache {
		res, err := core.RunCtx(ctx, d, opt)
		return res, "", err
	}
	res, outcome, err := s.solver.Solve(ctx, d, opt)
	if rec := obs.FromContext(ctx); rec != nil && err == nil {
		rec.SetLabel("cache", string(outcome))
	}
	return res, outcome, err
}

// routeResponse assembles the success body shared by the synchronous
// /route path and the async job executor.
func routeResponse(design string, res *core.Result, start time.Time) RouteResponse {
	resp := RouteResponse{
		Design:    design,
		Solver:    res.SolverUsed,
		Degraded:  res.Degraded,
		TimedOut:  res.TimedOut,
		Attempts:  res.Attempts,
		Metrics:   res.Metrics,
		ElapsedMS: time.Since(start).Milliseconds(),
	}
	if res.Audit != nil {
		ok := res.Audit.OK()
		resp.AuditOK = &ok
		if !ok {
			resp.Audit = res.Audit
		}
	}
	return resp
}

// respondError maps a failed run to a status code. Strict-audit failures
// return the audit report (the solve finished; the result is illegal),
// deadline expiry maps to 504, everything else — including exhausted
// fallback chains and isolated panics — to 500.
func (s *Server) respondError(w http.ResponseWriter, r *http.Request, res *core.Result, err error, start time.Time) {
	s.failed.Add(1)
	var ex *core.ExhaustedError
	switch {
	case res != nil && res.Audit != nil && !res.Audit.OK():
		resp := RouteResponse{
			Design:    res.Problem.Design.Name,
			Solver:    res.SolverUsed,
			Degraded:  res.Degraded,
			TimedOut:  res.TimedOut,
			Attempts:  res.Attempts,
			Metrics:   res.Metrics,
			Audit:     res.Audit,
			ElapsedMS: time.Since(start).Milliseconds(),
		}
		ok := false
		resp.AuditOK = &ok
		writeJSON(w, http.StatusUnprocessableEntity, resp)
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout,
			ErrorResponse{Error: fmt.Sprintf("solve deadline exceeded (budget %s)", s.cfg.SolveTimeout)})
	case errors.Is(err, context.Canceled):
		// The client went away or the server hard-drained; 499 is the
		// conventional nginx code but 503 is standard.
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "solve canceled"})
	case errors.As(err, &ex):
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: ex.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
	}
}

// requestOptions derives the flow options for one request from the base
// config plus ?method= and ?audit= overrides.
func (s *Server) requestOptions(r *http.Request) (core.Options, error) {
	q := r.URL.Query()
	return s.optionsFor(q.Get("method"), q.Get("audit"))
}

// optionsFor resolves method/audit override strings ("" keeps the base
// config) into flow options. Shared by the synchronous request path and
// the async job executor.
func (s *Server) optionsFor(method, auditMode string) (core.Options, error) {
	opt := s.cfg.Options
	switch m := method; m {
	case "", "default":
	case "pd":
		opt.Method = core.PrimalDual
	case "ilp":
		opt.Method = core.ILP
	case "hier":
		opt.Method = core.Hierarchical
	default:
		return opt, fmt.Errorf("unknown method %q (want pd, ilp or hier)", m)
	}
	switch a := auditMode; a {
	case "", "default":
	case "off":
		opt.Audit = core.AuditOff
	case "warn":
		opt.Audit = core.AuditWarn
	case "strict":
		opt.Audit = core.AuditStrict
	default:
		return opt, fmt.Errorf("unknown audit mode %q (want off, warn or strict)", a)
	}
	return opt, nil
}

// admit acquires a solve slot, queueing up to QueueWait when all slots are
// busy. It returns a release func on success, or a status code (429 when
// shed by queue depth or wait budget, 503 while draining) and an error.
func (s *Server) admit(reqCtx context.Context) (func(), int, error) {
	if s.isDraining() {
		return nil, http.StatusServiceUnavailable, errors.New("server is draining")
	}
	// Fast path: a free slot admits without queueing.
	select {
	case s.sem <- struct{}{}:
	default:
		// Queue, bounded by depth and wait budget. The depth check is
		// advisory (concurrent arrivals may briefly overshoot by one); the
		// semaphore itself is the hard bound on solves.
		if s.waiting.Load() >= int64(s.cfg.QueueDepth) {
			return nil, http.StatusTooManyRequests,
				fmt.Errorf("queue full (%d waiting, depth %d)", s.waiting.Load(), s.cfg.QueueDepth)
		}
		s.waiting.Add(1)
		timer := time.NewTimer(s.cfg.QueueWait)
		defer func() {
			timer.Stop()
			s.waiting.Add(-1)
		}()
		select {
		case s.sem <- struct{}{}:
		case <-timer.C:
			return nil, http.StatusTooManyRequests,
				fmt.Errorf("no solve slot within the %s wait budget", s.cfg.QueueWait)
		case <-reqCtx.Done():
			return nil, http.StatusServiceUnavailable, errors.New("client canceled while queued")
		case <-s.draining:
			return nil, http.StatusServiceUnavailable, errors.New("server is draining")
		}
	}
	s.inflight.Add(1)
	var released atomic.Bool
	return func() {
		if released.CompareAndSwap(false, true) {
			s.inflight.Add(-1)
			<-s.sem
		}
	}, 0, nil
}

// recordRequest hands one accepted request body to the configured
// record/replay recorder. Best-effort by design: a full disk or a closed
// ring must never fail live traffic.
func (s *Server) recordRequest(path, query string, d *signal.Design) {
	if s.cfg.Recorder == nil {
		return
	}
	body, err := json.Marshal(d)
	if err == nil {
		err = s.cfg.Recorder.Record(path, query, body)
	}
	if err != nil && s.cfg.Logf != nil {
		s.cfg.Logf("record %s: %v", path, err)
	}
}

// retryAfter hints when shed traffic should come back: roughly when the
// current queue has drained through the solve slots.
func (s *Server) retryAfter() string {
	// Round up, never down: a fractional wait budget truncated to its
	// floor tells clients to come back while the queue budget that shed
	// them is still running, turning every shed into a busy-loop. Clamp
	// to >= 1 because Retry-After: 0 means "immediately" to most clients.
	secs := int64((s.cfg.QueueWait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// Health is the /healthz payload.
type Health struct {
	// Status is "ok" while serving, "draining" after BeginDrain.
	Status string `json:"status"`
	// Inflight and Waiting are the live admission gauges.
	Inflight int64 `json:"inflight"`
	Waiting  int64 `json:"waiting"`
	// MaxInflight and QueueDepth echo the configured bounds.
	MaxInflight int `json:"max_inflight"`
	QueueDepth  int `json:"queue_depth"`
	// Served, Shed, Failed and Panics are lifetime counters.
	Served int64 `json:"served"`
	Shed   int64 `json:"shed"`
	Failed int64 `json:"failed"`
	Panics int64 `json:"panics"`
	// Jobs is the async tier's snapshot (absent when the tier is off).
	Jobs *jobs.Stats `json:"jobs,omitempty"`
	// Cache is the solve cache's counter snapshot (absent when caching is
	// disabled).
	Cache *solvecache.Stats `json:"cache,omitempty"`
}

// Stats returns the live health snapshot.
func (s *Server) Stats() Health {
	status := "ok"
	if s.isDraining() {
		status = "draining"
	}
	h := Health{
		Status:      status,
		Inflight:    s.inflight.Load(),
		Waiting:     s.waiting.Load(),
		MaxInflight: s.cfg.MaxInflight,
		QueueDepth:  s.cfg.QueueDepth,
		Served:      s.served.Load(),
		Shed:        s.shed.Load(),
		Failed:      s.failed.Load(),
		Panics:      s.panics.Load(),
	}
	if s.jobs != nil {
		st := s.jobs.StatsSnapshot()
		h.Jobs = &st
	}
	if s.solver != nil {
		cst := s.solver.Cache().Stats()
		h.Cache = &cst
	}
	return h
}

// handleHealthz reports liveness: 200 as long as the process serves.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleReadyz reports admission capacity: 503 while draining, while the
// wait queue is saturated, or while the jobs tier is still replaying its
// WAL at boot (the recovered job table is not yet authoritative), 200
// otherwise — the signal a load balancer uses to rotate an instance out
// before it starts shedding.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	st := s.Stats()
	switch {
	case st.Status == "draining":
		writeJSON(w, http.StatusServiceUnavailable, st)
	case st.Waiting >= int64(s.cfg.QueueDepth):
		writeJSON(w, http.StatusServiceUnavailable, st)
	case s.jobs != nil && !s.jobs.Ready():
		writeJSON(w, http.StatusServiceUnavailable, st)
	default:
		writeJSON(w, http.StatusOK, st)
	}
}

// BeginDrain stops admitting new solves: queued requests are released with
// 503, /readyz flips to 503, in-flight solves keep running, and the jobs
// runner stops picking up new PENDING work (in-flight job attempts finish;
// everything still queued stays persisted for the next boot). Idempotent.
func (s *Server) BeginDrain() {
	if s.drained.CompareAndSwap(false, true) {
		close(s.draining)
		if s.jobs != nil {
			s.jobs.BeginDrain()
		}
	}
}

// Drain performs the full graceful-shutdown sequence: stop admission, wait
// for in-flight solves — synchronous requests and async job attempts alike
// — to finish, and — if ctx expires first — cancel the stragglers and wait
// for them to unwind. It returns nil when the server drained cleanly and
// ctx.Err() when stragglers had to be canceled. Job attempts canceled this
// way persist as INTERRUPTED and are retried on the next boot.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	jobsDone := make(chan error, 1)
	if s.jobs != nil {
		go func() { jobsDone <- s.jobs.Drain(ctx) }()
	} else {
		jobsDone <- nil
	}
	reqErr := func() error {
		if s.awaitIdle(ctx) == nil {
			return nil
		}
		// Grace expired: cancel every in-flight solve. The pipeline honors
		// cancellation promptly, so bound the final wait instead of
		// trusting it.
		s.hardStop()
		final, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.awaitIdle(final); err != nil {
			return fmt.Errorf("drain: %d solves still running after hard cancel", s.inflight.Load())
		}
		return ctx.Err()
	}()
	if jerr := <-jobsDone; reqErr == nil {
		reqErr = jerr
	}
	return reqErr
}

// awaitIdle polls until no request holds or waits for a slot.
func (s *Server) awaitIdle(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.inflight.Load() == 0 && s.waiting.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// isDraining reports whether BeginDrain has been called.
func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// writeJSON writes v as a JSON response with the status code.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
