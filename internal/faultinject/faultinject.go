// Package faultinject provides deterministic, context-carried fault
// injection for the Streak pipeline. A Plan arms named fault points with
// actions (panic, artificial delay, injected error, state corruption) and
// rides on the context into every solver stage; the stages call Fire or
// Corrupt at compiled-in activation sites. With no plan on the context a
// site costs one context lookup and nothing else, so production paths pay
// effectively zero.
//
// Determinism is the point: actions trigger by activation count (After
// skips the first hits, Times bounds how often the action fires), never by
// randomness or timing, so a chaos test reproduces the same failure on
// every run. The plan records every activation so tests can assert that a
// site actually fired.
package faultinject

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Compiled-in fault points. Each constant names an activation site inside
// the pipeline; see the package comment of the owning package for where
// exactly the site sits. The registry below records which action kinds a
// site honors.
const (
	// RouteBuild fires at the start of problem construction
	// (route.BuildCtx and Problem.RebuildCtx), before the parallel
	// candidate fan-out.
	// Honors: panic, delay, error.
	RouteBuild = "route.build"
	// PDSolve fires at the start of the primal-dual solve (pd.SolveCtx).
	// Honors: panic, delay, error.
	PDSolve = "pd.solve"
	// PDCommit fires before every primal-dual commit iteration.
	// Honors: panic, delay, error.
	PDCommit = "pd.commit"
	// PDCapacity fires at the capacity bookkeeping of each primal-dual
	// commit; an armed Corrupt action makes the solver skip booking the
	// committed candidate's track usage, silently corrupting its residual
	// capacities so later commits can over-subscribe edges (the legality
	// audit must catch the resulting overflow). Honors: corrupt.
	PDCapacity = "pd.capacity"
	// ExactSolve fires at the start of the exact ILP solve
	// (exact.SolveCtx). Honors: panic, delay, error.
	ExactSolve = "exact.solve"
	// Simplex fires at the top of every LP-relaxation solve inside branch
	// and bound. An injected error reports the relaxation infeasible, which
	// surfaces as an infeasible exact solve; a delay stretches the
	// relaxation past branch-and-bound deadlines. Honors: panic, delay,
	// error (as LP infeasibility).
	Simplex = "ilp.simplex"
	// HierTile fires before each hierarchical tile solve. Honors: panic,
	// delay, error.
	HierTile = "hier.tile"
	// JobsStoreAppend fires before every durable job-store append
	// (jobs.Store implementations); an injected error makes the append —
	// and therefore the submit or state transition — fail. Honors: panic,
	// delay, error.
	JobsStoreAppend = "jobs.store.append"
	// JobsStoreReplay fires during WAL replay at boot: once per Replay
	// call for delay/error actions (a delay stalls recovery, which
	// /readyz must report), and once per decoded record for Corrupt —
	// a corrupt firing makes the replayer treat that record as torn,
	// exercising the skip-and-log path without touching the file. Honors:
	// panic, delay, error, corrupt.
	JobsStoreReplay = "jobs.store.replay"
	// JobsRun fires at the start of every async job execution attempt,
	// before the solve is invoked; an injected error or panic fails the
	// attempt and exercises the retry/backoff path. Honors: panic, delay,
	// error.
	JobsRun = "jobs.run"
)

// Points returns every compiled-in fault point, sorted.
func Points() []string {
	pts := []string{RouteBuild, PDSolve, PDCommit, PDCapacity, ExactSolve, Simplex, HierTile,
		JobsStoreAppend, JobsStoreReplay, JobsRun}
	sort.Strings(pts)
	return pts
}

// Action describes what an armed fault point does when it activates.
// Exactly one of Panic, Delay, Err, Corrupt is normally set; when several
// are set a firing applies Delay first, then Panic, then Err.
type Action struct {
	// Panic, when non-empty, panics with this message at the site.
	Panic string
	// Delay sleeps this long before continuing. The sleep watches the
	// context so an expired deadline is noticed by the site's own
	// cancellation checks immediately after, exactly like a slow solver.
	Delay time.Duration
	// Err, when non-empty, returns an *Error with this message from Fire.
	Err string
	// Corrupt arms a state-corruption site (see the point's doc for what
	// exactly gets corrupted).
	Corrupt bool
	// After skips the first After activations of the point before firing.
	After int
	// Times bounds how many activations fire. Zero means every one.
	Times int
}

// Error is an injected failure returned by Fire.
type Error struct {
	// Point names the fault point that produced the error.
	Point string
	// Msg is the armed Action.Err text.
	Msg string
}

// Error formats the injected failure with its origin attached.
func (e *Error) Error() string { return fmt.Sprintf("faultinject: %s: %s", e.Point, e.Msg) }

// Activation records one hit of an armed fault point.
type Activation struct {
	// Point names the fault point.
	Point string
	// Seq is the 1-based hit count of the point at this activation.
	Seq int
	// Fired reports whether the action applied (false while skipped by
	// After or exhausted by Times).
	Fired bool
}

// Plan arms fault points and records activations. A Plan is safe for
// concurrent use; the zero value is not valid — use NewPlan.
type Plan struct {
	mu    sync.Mutex
	armed map[string]*armedAction
	log   []Activation
}

type armedAction struct {
	act   Action
	hits  int
	fired int
}

// NewPlan returns an empty plan.
func NewPlan() *Plan {
	return &Plan{armed: make(map[string]*armedAction)}
}

// Arm attaches an action to a fault point and returns the plan for
// chaining. Re-arming a point replaces its action and resets its counters.
func (p *Plan) Arm(point string, a Action) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.armed[point] = &armedAction{act: a}
	return p
}

// Log returns a copy of every recorded activation, in order.
func (p *Plan) Log() []Activation {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Activation(nil), p.log...)
}

// Fired returns how many times the point's action actually applied.
func (p *Plan) Fired(point string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ar := p.armed[point]; ar != nil {
		return ar.fired
	}
	return 0
}

// activate counts a hit and reports whether the action applies now.
func (p *Plan) activate(point string) (Action, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ar := p.armed[point]
	if ar == nil {
		return Action{}, false
	}
	ar.hits++
	fires := ar.hits > ar.act.After && (ar.act.Times == 0 || ar.fired < ar.act.Times)
	if fires {
		ar.fired++
	}
	p.log = append(p.log, Activation{Point: point, Seq: ar.hits, Fired: fires})
	return ar.act, fires
}

type ctxKey struct{}

// With attaches the plan to the context. A nil plan returns ctx unchanged.
func With(ctx context.Context, p *Plan) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, p)
}

// FromContext returns the plan carried by ctx, or nil.
func FromContext(ctx context.Context) *Plan {
	p, _ := ctx.Value(ctxKey{}).(*Plan)
	return p
}

// Fire activates the named fault point: depending on the armed action it
// sleeps, panics, or returns an injected *Error. With no plan on the
// context, no armed action, or an action outside its After/Times window it
// is a no-op returning nil. Corrupt-only actions never fire here — state
// corruption sites use Corrupt.
func Fire(ctx context.Context, point string) error {
	p := FromContext(ctx)
	if p == nil {
		return nil
	}
	act, fires := p.activate(point)
	if !fires {
		return nil
	}
	if act.Delay > 0 {
		sleep(ctx, act.Delay)
	}
	if act.Panic != "" {
		panic(fmt.Sprintf("faultinject: %s: %s", point, act.Panic))
	}
	if act.Err != "" {
		return &Error{Point: point, Msg: act.Err}
	}
	return nil
}

// Corrupt activates a state-corruption site: it reports whether the site
// should corrupt its own state now. Only Action.Corrupt plans fire here.
func Corrupt(ctx context.Context, point string) bool {
	p := FromContext(ctx)
	if p == nil {
		return false
	}
	act, fires := p.activate(point)
	return fires && act.Corrupt
}

// sleep waits d honoring ctx cancellation. It returns silently either way:
// the site's own cancellation checks decide what an expired deadline means,
// exactly as they would for a genuinely slow solve.
func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// ParseSpec builds a plan from a compact textual spec, for wiring fault
// injection through command-line flags:
//
//	point=kind[:arg][@after][#times][;point=kind...]
//
// Kinds: "panic[:msg]", "delay:duration", "error[:msg]", "corrupt".
// "@after" skips the first N activations; "#times" bounds firings. Example:
//
//	exact.solve=panic;hier.tile=delay:50ms#2;pd.capacity=corrupt@1
//
// Unknown point names are rejected so a typo cannot silently disarm a
// chaos run, and naming the same point twice is an error rather than
// last-wins: a spec like "pd.solve=panic;pd.solve=delay:1s" almost always
// means the author expected both actions, and silently dropping the first
// would disarm half the chaos run.
func ParseSpec(spec string) (*Plan, error) {
	p := NewPlan()
	known := make(map[string]bool, len(Points()))
	for _, pt := range Points() {
		known[pt] = true
	}
	armed := make(map[string]bool)
	for _, ent := range strings.Split(spec, ";") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		point, actSpec, ok := strings.Cut(ent, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: entry %q: want point=action", ent)
		}
		point = strings.TrimSpace(point)
		if !known[point] {
			return nil, fmt.Errorf("faultinject: unknown point %q (known: %s)", point, strings.Join(Points(), ", "))
		}
		if armed[point] {
			return nil, fmt.Errorf("faultinject: point %q armed twice in one spec (a point holds one action; merge or drop one)", point)
		}
		armed[point] = true
		act, err := parseAction(strings.TrimSpace(actSpec))
		if err != nil {
			return nil, fmt.Errorf("faultinject: point %s: %w", point, err)
		}
		p.Arm(point, act)
	}
	return p, nil
}

// SpecEntry is one point=action clause for programmatic spec assembly
// (see FormatSpec).
type SpecEntry struct {
	// Point names a compiled-in fault point.
	Point string
	// Act is the action to arm there.
	Act Action
}

// FormatSpec renders entries into the textual spec grammar ParseSpec
// accepts, so a generator (the scenario engine's chaos schedules) can
// build fault plans programmatically and hand them to streakd's
// -faultinject flag. The round trip ParseSpec(FormatSpec(e)) arms exactly
// the given actions. Unknown points, duplicate points, and actions the
// grammar cannot express (several kinds at once, arguments containing the
// grammar's separators) are errors.
func FormatSpec(entries []SpecEntry) (string, error) {
	known := make(map[string]bool, len(Points()))
	for _, pt := range Points() {
		known[pt] = true
	}
	seen := make(map[string]bool, len(entries))
	parts := make([]string, 0, len(entries))
	for _, e := range entries {
		if !known[e.Point] {
			return "", fmt.Errorf("faultinject: unknown point %q", e.Point)
		}
		if seen[e.Point] {
			return "", fmt.Errorf("faultinject: point %q appears twice", e.Point)
		}
		seen[e.Point] = true
		clause, err := formatAction(e.Act)
		if err != nil {
			return "", fmt.Errorf("faultinject: point %s: %w", e.Point, err)
		}
		parts = append(parts, e.Point+"="+clause)
	}
	return strings.Join(parts, ";"), nil
}

// formatAction renders one action as a kind[:arg][@after][#times] clause.
func formatAction(a Action) (string, error) {
	set := 0
	for _, on := range []bool{a.Panic != "", a.Delay > 0, a.Err != "", a.Corrupt} {
		if on {
			set++
		}
	}
	if set != 1 {
		return "", fmt.Errorf("action must set exactly one of panic, delay, error, corrupt (have %d)", set)
	}
	var clause string
	switch {
	case a.Panic != "":
		if strings.ContainsAny(a.Panic, ";=@#") {
			return "", fmt.Errorf("panic message %q contains spec separators", a.Panic)
		}
		clause = "panic:" + a.Panic
	case a.Delay > 0:
		clause = "delay:" + a.Delay.String()
	case a.Err != "":
		if strings.ContainsAny(a.Err, ";=@#") {
			return "", fmt.Errorf("error message %q contains spec separators", a.Err)
		}
		clause = "error:" + a.Err
	case a.Corrupt:
		clause = "corrupt"
	}
	if a.After < 0 || a.Times < 0 {
		return "", fmt.Errorf("negative @after or #times")
	}
	if a.After > 0 {
		clause += fmt.Sprintf("@%d", a.After)
	}
	if a.Times > 0 {
		clause += fmt.Sprintf("#%d", a.Times)
	}
	return clause, nil
}

// parseAction parses one kind[:arg][@after][#times] clause.
func parseAction(s string) (Action, error) {
	var a Action
	if i := strings.IndexByte(s, '#'); i >= 0 {
		if _, err := fmt.Sscanf(s[i+1:], "%d", &a.Times); err != nil || a.Times < 1 {
			return a, fmt.Errorf("bad #times in %q", s)
		}
		s = s[:i]
	}
	if i := strings.IndexByte(s, '@'); i >= 0 {
		if _, err := fmt.Sscanf(s[i+1:], "%d", &a.After); err != nil || a.After < 0 {
			return a, fmt.Errorf("bad @after in %q", s)
		}
		s = s[:i]
	}
	kind, arg, _ := strings.Cut(s, ":")
	switch kind {
	case "panic":
		a.Panic = arg
		if a.Panic == "" {
			a.Panic = "injected panic"
		}
	case "delay":
		d, err := time.ParseDuration(arg)
		if err != nil || d <= 0 {
			return a, fmt.Errorf("bad delay duration %q", arg)
		}
		a.Delay = d
	case "error":
		a.Err = arg
		if a.Err == "" {
			a.Err = "injected error"
		}
	case "corrupt":
		a.Corrupt = true
	default:
		return a, fmt.Errorf("unknown action kind %q (want panic, delay, error or corrupt)", kind)
	}
	return a, nil
}
