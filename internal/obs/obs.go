// Package obs is Streak's observability layer: a nil-safe telemetry
// Recorder that collects per-stage spans (problem build, kernel fill,
// solver rungs, post-optimization, audit), named solver counters (simplex
// iterations, branch-and-bound nodes, primal-dual commits, hierarchical
// tile solves, fallback attempts) and labels, congestion snapshots derived
// from grid.Usage, and an optional HTTP debug endpoint serving the live
// report, Go's expvar variables and net/http/pprof.
//
// Every method on a nil *Recorder is a no-op, so the entire pipeline can be
// instrumented unconditionally: a run without a recorder attached to its
// context pays one context lookup per stage and nothing else. A recorder
// only times stages and adds up counters, so traced and untraced runs
// execute the same solver code. Stages executed under a recorder run
// inside runtime/pprof labels (stage=<name>) so CPU profiles attribute
// samples to pipeline phases.
package obs

import (
	"context"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// SchemaVersion identifies the JSON layout of Report. Bump it when the
// report shape changes incompatibly (see DESIGN.md "Observability").
const SchemaVersion = 1

// Canonical stage names. Every pipeline phase records its span under one of
// these, so reports stay joinable across runs and tools.
const (
	StageBuild   = "build.candidates"
	StageKernel  = "build.kernel"
	StagePD      = "solve.pd"
	StageILP     = "solve.ilp"
	StageHier    = "solve.hier"
	StageCluster = "postopt.cluster"
	StageRefine  = "postopt.refine"
	StageAudit   = "audit"
	StageMetrics = "metrics"
)

// Recorder collects spans, counters and labels for one run. The zero value
// is not used directly; call NewRecorder. All methods are safe for
// concurrent use and safe on a nil receiver.
type Recorder struct {
	mu       sync.Mutex
	start    time.Time
	spans    []SpanRecord
	active   map[*Span]struct{}
	counters map[string]int64
	labels   map[string]string
}

// NewRecorder returns an empty recorder whose span offsets are measured
// from now.
func NewRecorder() *Recorder {
	return &Recorder{
		start:    time.Now(),
		active:   make(map[*Span]struct{}),
		counters: make(map[string]int64),
		labels:   make(map[string]string),
	}
}

// Span is one in-flight stage measurement; End finishes it. A nil *Span
// (from a nil recorder) ignores every call. Spans nest through obs.Do, which
// threads the current stage span through the context so a nested stage's
// record carries its parent's name.
type Span struct {
	r       *Recorder
	name    string
	parent  string
	workers int
	t0      time.Time
}

// SpanRecord is one finished stage in a report. Offsets and durations are
// microseconds so the JSON stays integer-valued and stable.
type SpanRecord struct {
	// Name is the canonical stage name.
	Name string `json:"name"`
	// Parent is the name of the enclosing span ("" at top level).
	Parent string `json:"parent,omitempty"`
	// StartUS is the span's start offset from the recorder's creation.
	StartUS int64 `json:"start_us"`
	// DurUS is the span's wall-clock duration.
	DurUS int64 `json:"dur_us"`
	// Workers is the worker-pool size the stage ran with (0 = sequential
	// or not applicable).
	Workers int `json:"workers,omitempty"`
}

// ActiveSpan is one still-running stage in a live report.
type ActiveSpan struct {
	Name      string `json:"name"`
	ElapsedUS int64  `json:"elapsed_us"`
	Workers   int    `json:"workers,omitempty"`
}

// StartSpan opens a top-level stage span. Always End it, normally via
// defer.
func (r *Recorder) StartSpan(name string) *Span {
	return r.startSpan(name, "")
}

func (r *Recorder) startSpan(name, parent string) *Span {
	if r == nil {
		return nil
	}
	s := &Span{r: r, name: name, parent: parent, t0: time.Now()}
	r.mu.Lock()
	r.active[s] = struct{}{}
	r.mu.Unlock()
	return s
}

// SetWorkers annotates the span with the worker-pool size of its stage.
// The write takes the recorder's lock: Report reads live spans' workers
// concurrently.
func (s *Span) SetWorkers(n int) {
	if s == nil {
		return
	}
	s.r.mu.Lock()
	s.workers = n
	s.r.mu.Unlock()
}

// End finishes the span and appends it to the recorder.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	r := s.r
	r.mu.Lock()
	delete(r.active, s)
	r.spans = append(r.spans, SpanRecord{
		Name:    s.name,
		Parent:  s.parent,
		StartUS: s.t0.Sub(r.start).Microseconds(),
		DurUS:   now.Sub(s.t0).Microseconds(),
		Workers: s.workers,
	})
	r.mu.Unlock()
}

// Add increments a named counter by delta.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// SetLabel attaches a string label (solver used, bench name, ...) to the
// report. Later values for the same key overwrite earlier ones.
func (r *Recorder) SetLabel(key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.labels[key] = value
	r.mu.Unlock()
}

// Counter returns the current value of a named counter (0 when absent).
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Counters returns a copy of every counter — cheaper than a full Report
// when only the counter set is wanted (nil when none, including on a nil
// recorder).
func (r *Recorder) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) == 0 {
		return nil
	}
	out := make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// Report is the JSON-serializable telemetry of one run.
type Report struct {
	// Schema is SchemaVersion.
	Schema int `json:"schema"`
	// Labels carries run-level annotations (solver, bench, ...).
	Labels map[string]string `json:"labels,omitempty"`
	// Spans lists finished stages in completion order.
	Spans []SpanRecord `json:"spans"`
	// Active lists still-running stages (live reports only).
	Active []ActiveSpan `json:"active,omitempty"`
	// Counters holds the named solver counters.
	Counters map[string]int64 `json:"counters"`
	// Congestion is the optional usage snapshot (attached by the caller).
	Congestion *CongestionSnapshot `json:"congestion,omitempty"`
}

// Report snapshots the recorder: finished spans, live stages, counters and
// labels. Safe to call while stages are still recording. A nil recorder
// yields an empty (but schema-stamped) report.
func (r *Recorder) Report() Report {
	rep := Report{Schema: SchemaVersion}
	if r == nil {
		return rep
	}
	now := time.Now()
	r.mu.Lock()
	rep.Spans = append([]SpanRecord(nil), r.spans...)
	for s := range r.active {
		rep.Active = append(rep.Active, ActiveSpan{
			Name:      s.name,
			ElapsedUS: now.Sub(s.t0).Microseconds(),
			Workers:   s.workers,
		})
	}
	rep.Counters = make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		rep.Counters[k] = v
	}
	if len(r.labels) > 0 {
		rep.Labels = make(map[string]string, len(r.labels))
		for k, v := range r.labels {
			rep.Labels[k] = v
		}
	}
	r.mu.Unlock()
	sort.Slice(rep.Active, func(i, j int) bool { return rep.Active[i].Name < rep.Active[j].Name })
	return rep
}

// SpanTotal sums the durations of every finished span with the given name
// (a stage can run more than once, e.g. a solver retried by the fallback
// chain).
func (rep Report) SpanTotal(name string) time.Duration {
	var us int64
	for _, s := range rep.Spans {
		if s.Name == name {
			us += s.DurUS
		}
	}
	return time.Duration(us) * time.Microsecond
}

// ctxKey keys the recorder in a context.
type ctxKey struct{}

// WithRecorder attaches the recorder to the context. Attaching nil returns
// ctx unchanged, keeping the disabled path allocation-free.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromContext returns the recorder attached to ctx, or nil.
func FromContext(ctx context.Context) *Recorder {
	r, _ := ctx.Value(ctxKey{}).(*Recorder)
	return r
}

// spanKey keys the current span in a context.
type spanKey struct{}

// WithSpan attaches the span to the context so nested stages can parent
// under it. Attaching nil returns ctx unchanged.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the innermost span attached to ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// Do runs fn as a named pipeline stage: when ctx carries a recorder the
// call is wrapped in a span and executed under the pprof label
// stage=<name>, so CPU profiles attribute samples to the phase; without a
// recorder it is a plain call. workers annotates the span (0 = sequential).
// The stage span parents under the span already in ctx (if any) and is
// itself attached to the context fn sees, so stages nest.
func Do(ctx context.Context, name string, workers int, fn func(context.Context) error) error {
	r := FromContext(ctx)
	if r == nil {
		return fn(ctx)
	}
	parent := ""
	if ps := SpanFromContext(ctx); ps != nil {
		parent = ps.name
	}
	sp := r.startSpan(name, parent)
	sp.SetWorkers(workers)
	defer sp.End()
	var err error
	pprof.Do(WithSpan(ctx, sp), pprof.Labels("stage", name), func(ctx context.Context) {
		err = fn(ctx)
	})
	return err
}
