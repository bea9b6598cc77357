// Package core orchestrates the complete Streak flow of Fig. 2: problem
// construction (identification + topology generation + candidate
// expansion), global candidate selection by primal-dual or exact ILP, the
// post-optimization stage (layer prediction + bottom-up clustering +
// distance refinement), and metric evaluation.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/audit"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/postopt"
	"repro/internal/route"
	"repro/internal/signal"
)

// Method selects the global candidate-selection solver.
type Method int

const (
	// PrimalDual runs Algorithm 2 (the paper's fast flow).
	PrimalDual Method = iota
	// ILP solves formulation (3) exactly (the paper's GUROBI flow).
	ILP
	// Hierarchical runs the divide-and-conquer exact flow sketched in the
	// paper's future work (§VI): per-tile ILPs against residual capacity
	// plus a greedy sweep.
	Hierarchical
)

// String names the method.
func (m Method) String() string {
	switch m {
	case ILP:
		return "ILP"
	case Hierarchical:
		return "Hierarchical-ILP"
	default:
		return "Primal-Dual"
	}
}

// Options configures a Streak run.
type Options struct {
	// Method picks the selection solver. Default PrimalDual.
	Method Method
	// Route tunes problem construction.
	Route route.Options
	// Post tunes the post-optimization stage.
	Post postopt.Options
	// PostOpt enables the post-optimization stage (Table II adds it on
	// top of the Table I flows).
	PostOpt bool
	// Clustering enables bottom-up clustering within post-optimization
	// (Fig. 14 ablates it).
	Clustering bool
	// Refinement enables the distance refinement within post-optimization
	// (Fig. 15 ablates it).
	Refinement bool
	// ILPTimeLimit bounds the exact solve; the paper uses 3600 s.
	// Zero means no limit.
	ILPTimeLimit time.Duration
	// ILPWarmStart primes the exact solver with the primal-dual solution.
	ILPWarmStart bool
	// ILPMaxVars guards against over-large linearized models (see
	// exact.Options).
	ILPMaxVars int
	// HierTiles is the tile grid dimension for the Hierarchical method
	// (default 2).
	HierTiles int
	// HierTimePerTile bounds each tile ILP (default 5s).
	HierTimePerTile time.Duration
	// HierWorkers is ignored: hierarchical tiles always solve in order.
	//
	// Deprecated: ignored.
	HierWorkers int
	// Fallback configures graceful degradation across solvers (panic,
	// timeout-with-nothing, oversized model, infeasibility).
	Fallback Fallback
	// Audit selects the post-solve legality audit mode. Default AuditOff.
	Audit AuditMode
}

// AuditMode selects how the post-solve legality audit behaves.
type AuditMode int

const (
	// AuditOff skips the audit.
	AuditOff AuditMode = iota
	// AuditWarn runs the audit and attaches the report to the result;
	// violations do not fail the run.
	AuditWarn
	// AuditStrict runs the audit and fails the run on any violation. The
	// populated result is returned alongside the error for diagnosis.
	AuditStrict
)

// String names the mode.
func (m AuditMode) String() string {
	switch m {
	case AuditWarn:
		return "warn"
	case AuditStrict:
		return "strict"
	default:
		return "off"
	}
}

// Result carries everything a Streak run produced.
type Result struct {
	// Problem is the built selection problem (kept for inspection and for
	// chaining experiments).
	Problem *route.Problem
	// Assignment is the global selection.
	Assignment route.Assignment
	// Routing is the final per-bit geometry (after post-optimization when
	// enabled).
	Routing *route.Routing
	// Usage is the final track usage.
	Usage *grid.Usage
	// Metrics is the evaluated result row.
	Metrics metrics.Metrics
	// TimedOut reports whether the ILP hit its time limit.
	TimedOut bool
	// VioBefore is the Vio(dst) count before refinement (Table II's first
	// column); equal to Metrics.VioDst when refinement is off.
	VioBefore int
	// Cluster and Refine carry post-optimization statistics.
	Cluster postopt.ClusterStats
	// Refine carries refinement statistics (zero when disabled).
	Refine postopt.RefineStats
	// Runtime is the end-to-end wall-clock time (problem build excluded,
	// matching the paper's solver CPU column).
	Runtime time.Duration
	// SolverUsed names the solver that produced the assignment.
	SolverUsed string
	// Degraded is true when a fallback rung — not the requested method —
	// produced the assignment.
	Degraded bool
	// Attempts records the failed rungs of the fallback chain, in order.
	Attempts []Attempt
	// Audit is the legality report (nil when Options.Audit is AuditOff).
	Audit *audit.Report
}

// Run executes the Streak flow on the design.
func Run(d *signal.Design, opt Options) (*Result, error) {
	return RunCtx(context.Background(), d, opt)
}

// RunCtx is Run honoring the context: cancellation and deadlines propagate
// into every stage — exact branch and bound (per node and inside long LP
// relaxations), the hierarchical per-tile solves, the primal-dual commit
// loop, and the post-optimization cluster/refine loops — so the call
// returns promptly with ctx's error.
func RunCtx(ctx context.Context, d *signal.Design, opt Options) (*Result, error) {
	ctx, end := rootSpan(ctx)
	defer end()
	p, err := route.BuildCtx(ctx, d, opt.Route)
	if err != nil {
		return nil, err
	}
	return RunProblemCtx(ctx, p, opt)
}

// rootSpan opens the flow's root "run" span so every stage span nests under
// one top-level interval in the report. It is a no-op when no recorder is
// attached or a span is already open on the context (RunCtx opens it once;
// RunProblemCtx reuses it).
func rootSpan(ctx context.Context) (context.Context, func()) {
	rec := obs.FromContext(ctx)
	if rec == nil || obs.SpanFromContext(ctx) != nil {
		return ctx, func() {}
	}
	sp := rec.StartSpan("run")
	return obs.WithSpan(ctx, sp), sp.End
}

// RunProblem executes the flow on a pre-built problem, letting callers
// reuse one problem across solver comparisons.
func RunProblem(p *route.Problem, opt Options) (*Result, error) {
	return RunProblemCtx(context.Background(), p, opt)
}

// RunProblemCtx is RunProblem honoring the context; see RunCtx. With
// Options.Fallback enabled a failing solver rung degrades to the next one
// instead of failing the run; context cancellation is never swallowed.
// In AuditStrict mode the populated result is returned alongside the audit
// error so callers can inspect the violations.
func RunProblemCtx(ctx context.Context, p *route.Problem, opt Options) (*Result, error) {
	if opt.Method < PrimalDual || opt.Method > Hierarchical {
		return nil, fmt.Errorf("core: unknown method %d", opt.Method)
	}
	ctx, end := rootSpan(ctx)
	defer end()
	start := time.Now()
	res := &Result{Problem: p}

	rungs := opt.chain()
	solved := false
	for ri, s := range rungs {
		if err := ctx.Err(); errors.Is(err, context.Canceled) {
			// Only cancellation aborts outright; an expired deadline lets
			// the rung return its best (possibly empty) timed-out outcome.
			return nil, fmt.Errorf("core: %w", err)
		}
		out, err := runRung(ctx, s, p, opt)
		if err == nil && out.TimedOut && out.Assignment.RoutedObjects() == 0 && ri+1 < len(rungs) && ctx.Err() == nil {
			// A timeout that produced nothing is a failure worth degrading
			// from — unless the caller's own deadline expired, in which case
			// every later rung would time out identically and the empty
			// timed-out result stands. Without further rungs it stays a
			// (reported) timeout either way.
			err = fmt.Errorf("core: solver %s timed out with no feasible selection", s.Name())
		}
		if err != nil {
			if cerr := ctx.Err(); errors.Is(cerr, context.Canceled) {
				// The rung failed because the caller gave up; report the
				// cancellation, not the rung.
				return nil, fmt.Errorf("core: %w", cerr)
			}
			res.Attempts = append(res.Attempts, Attempt{Solver: s.Name(), Err: err.Error()})
			if ri+1 < len(rungs) {
				continue
			}
			// The chain is exhausted: surface every failed rung, not just
			// the last, so callers can report the whole degradation history.
			return nil, &ExhaustedError{Attempts: res.Attempts, cause: err}
		}
		res.Assignment = out.Assignment
		res.TimedOut = out.TimedOut
		res.SolverUsed = s.Name()
		res.Degraded = ri > 0
		solved = true
		break
	}
	if !solved {
		return nil, fmt.Errorf("core: no solver produced a result")
	}
	if rec := obs.FromContext(ctx); rec != nil {
		rec.SetLabel("solver", res.SolverUsed)
		if res.Degraded {
			rec.SetLabel("degraded", "true")
		}
		rec.Add(obs.CounterFallbackAttempts, int64(len(res.Attempts)))
	}

	res.Routing = p.ExtractRouting(res.Assignment)
	res.Usage = res.Routing.UsageOf(p.Grid)

	refined := false
	if opt.PostOpt {
		var postErr error
		if opt.Clustering {
			stats, err := postopt.ClusterAndRouteCtx(ctx, p, res.Routing, res.Usage, opt.Post)
			res.Cluster = stats
			postErr = err
		}
		if postErr == nil && opt.Refinement {
			stats, err := postopt.RefineCtx(ctx, p, res.Routing, res.Usage, opt.Post)
			res.Refine = stats
			refined = true
			postErr = err
		}
		if postErr != nil {
			if !errors.Is(postErr, context.DeadlineExceeded) {
				return nil, fmt.Errorf("core: %w", postErr)
			}
			// An expired deadline truncates post-optimization; the partial
			// routing stays legal, so — as in the solver legs — it is a
			// timed-out result, not an error.
			res.TimedOut = true
		}
	}

	res.Runtime = time.Since(start)
	_ = obs.Do(ctx, obs.StageMetrics, 0, func(context.Context) error {
		res.Metrics = metrics.Compute(p.Design, res.Routing, res.Usage, opt.Post)
		return nil
	})
	res.Metrics.Runtime = res.Runtime
	// Refinement measured the routing it started from; without it, the
	// metrics just measured the same routing.
	if refined {
		res.VioBefore = res.Refine.GroupsBefore
	} else {
		res.VioBefore = res.Metrics.VioDst
	}

	if opt.Audit != AuditOff {
		rep := audit.CheckCtx(ctx, p.Design, p.Grid, res.Routing)
		res.Audit = &rep
		if opt.Audit == AuditStrict {
			if err := rep.Err(); err != nil {
				return res, fmt.Errorf("core: %w", err)
			}
		}
	}
	return res, nil
}
