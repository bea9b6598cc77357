package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/signal"
)

// TestFallbackChainUnderInjectedFaults drives the real solvers — not
// stubs — through the fallback chain with deterministic faults armed at
// the compiled-in activation sites, and asserts each failure mode lands on
// exactly the documented degradation path.
func TestFallbackChainUnderInjectedFaults(t *testing.T) {
	cases := []struct {
		name string
		plan func() *faultinject.Plan
		opt  Options

		ctxTimeout time.Duration // overall run deadline (0 = none)

		wantSolver   string
		wantDegraded bool
		wantTimedOut bool
		allowEmpty   bool     // timed-out rows may have routed nothing
		wantAttempts []string // substring per attempt, in order
	}{
		{
			name: "ilp-panic-degrades-to-hier",
			plan: func() *faultinject.Plan {
				return faultinject.NewPlan().Arm(faultinject.ExactSolve, faultinject.Action{Panic: "chaos"})
			},
			opt:          Options{Method: ILP, Fallback: Fallback{Enabled: true}},
			wantSolver:   Hierarchical.String(),
			wantDegraded: true,
			wantAttempts: []string{"panicked"},
		},
		{
			name: "ilp-timeout-degrades-to-hier",
			plan: func() *faultinject.Plan {
				return faultinject.NewPlan().Arm(faultinject.ExactSolve, faultinject.Action{Delay: 2 * time.Second})
			},
			opt:          Options{Method: ILP, ILPTimeLimit: 30 * time.Millisecond, Fallback: Fallback{Enabled: true}},
			wantSolver:   Hierarchical.String(),
			wantDegraded: true,
			wantAttempts: []string{"timed out"},
		},
		{
			name: "ilp-injected-error-degrades-to-hier",
			plan: func() *faultinject.Plan {
				return faultinject.NewPlan().Arm(faultinject.ExactSolve, faultinject.Action{Err: "solver backend down"})
			},
			opt:          Options{Method: ILP, Fallback: Fallback{Enabled: true}},
			wantSolver:   Hierarchical.String(),
			wantDegraded: true,
			wantAttempts: []string{"solver backend down"},
		},
		{
			name: "simplex-infeasible-degrades-to-hier",
			plan: func() *faultinject.Plan {
				// Every LP relaxation reports infeasible: the monolithic ILP
				// fails outright; the hierarchical tile ILPs fail too, but
				// its greedy sweep still routes, so the chain stops there.
				return faultinject.NewPlan().Arm(faultinject.Simplex, faultinject.Action{Err: "lp corrupted"})
			},
			opt:          Options{Method: ILP, Fallback: Fallback{Enabled: true}},
			wantSolver:   Hierarchical.String(),
			wantDegraded: true,
			wantAttempts: []string{"infeasible"},
		},
		{
			name: "hier-timeout-is-reported-not-degraded",
			plan: func() *faultinject.Plan {
				// Stall the first tile past the caller's overall deadline:
				// the hierarchical rung returns its (possibly empty) partial
				// as a timed-out result — degrading further would be useless
				// because every later rung shares the expired deadline.
				return faultinject.NewPlan().Arm(faultinject.HierTile, faultinject.Action{Delay: 10 * time.Second})
			},
			opt:          Options{Method: Hierarchical, Fallback: Fallback{Enabled: true}},
			ctxTimeout:   80 * time.Millisecond,
			wantSolver:   Hierarchical.String(),
			wantTimedOut: true,
			allowEmpty:   true,
		},
		{
			name: "hier-tile-panic-degrades-to-pd",
			plan: func() *faultinject.Plan {
				return faultinject.NewPlan().Arm(faultinject.HierTile, faultinject.Action{Panic: "tile chaos"})
			},
			opt:          Options{Method: Hierarchical, Fallback: Fallback{Enabled: true}},
			wantSolver:   PrimalDual.String(),
			wantDegraded: true,
			wantAttempts: []string{"panicked"},
		},
	}

	p := testProblem(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := faultinject.With(context.Background(), tc.plan())
			if tc.ctxTimeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, tc.ctxTimeout)
				defer cancel()
			}
			res, err := RunProblemCtx(ctx, p, tc.opt)
			if err != nil {
				t.Fatalf("RunProblemCtx: %v", err)
			}
			if res.SolverUsed != tc.wantSolver {
				t.Errorf("SolverUsed = %q, want %q", res.SolverUsed, tc.wantSolver)
			}
			if res.Degraded != tc.wantDegraded {
				t.Errorf("Degraded = %v, want %v", res.Degraded, tc.wantDegraded)
			}
			if tc.wantTimedOut && !res.TimedOut {
				t.Error("TimedOut = false, want true")
			}
			if len(res.Attempts) != len(tc.wantAttempts) {
				t.Fatalf("Attempts = %+v, want %d entries", res.Attempts, len(tc.wantAttempts))
			}
			for i, frag := range tc.wantAttempts {
				if !strings.Contains(res.Attempts[i].Err, frag) {
					t.Errorf("attempt %d = %+v, want err containing %q", i, res.Attempts[i], frag)
				}
			}
			if !tc.allowEmpty && res.Assignment.RoutedObjects() == 0 {
				t.Error("degraded run routed nothing")
			}
			// The result of every degradation path must still be legal.
			rep := audit.Check(p.Design, p.Grid, res.Routing)
			if !rep.OK() {
				t.Errorf("degraded routing fails the audit: %s", rep.Summary())
			}
		})
	}
}

// TestChainExhaustionReturnsTypedError arms a panic at every solver rung:
// the chain must exhaust, return an *ExhaustedError naming all three
// failed rungs, and still expose the root-cause *PanicError via errors.As.
func TestChainExhaustionReturnsTypedError(t *testing.T) {
	p := testProblem(t)
	plan := faultinject.NewPlan().
		Arm(faultinject.ExactSolve, faultinject.Action{Panic: "chaos"}).
		Arm(faultinject.HierTile, faultinject.Action{Panic: "chaos"}).
		Arm(faultinject.PDSolve, faultinject.Action{Panic: "chaos"})
	ctx := faultinject.With(context.Background(), plan)
	res, err := RunProblemCtx(ctx, p, Options{Method: ILP, Fallback: Fallback{Enabled: true}})
	if res != nil {
		t.Error("exhausted chain returned a result")
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want *ExhaustedError", err)
	}
	if len(ex.Attempts) != 3 {
		t.Fatalf("Attempts = %+v, want 3", ex.Attempts)
	}
	wantRungs := []string{ILP.String(), Hierarchical.String(), PrimalDual.String()}
	for i, want := range wantRungs {
		if ex.Attempts[i].Solver != want {
			t.Errorf("attempt %d solver = %q, want %q", i, ex.Attempts[i].Solver, want)
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name rung %q", err, want)
		}
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Errorf("root cause not a *PanicError: %v", err)
	}
}

// TestCapacityCorruptionCaughtByAudit corrupts the primal-dual solver's
// internal capacity bookkeeping on a deliberately contended design: the
// solver double-books the only horizontal track, and the independent
// legality audit must catch the overflow (warn mode reports it, strict
// mode fails the run with the report attached).
func TestCapacityCorruptionCaughtByAudit(t *testing.T) {
	// Two single-bit groups whose straight routes share one row of H edges
	// on the only horizontal layer; EdgeCap 1 admits exactly one of them.
	d := &signal.Design{
		Name: "contended",
		Grid: signal.GridSpec{W: 24, H: 8, NumLayers: 2, EdgeCap: 1},
		Groups: []signal.Group{
			{Name: "a", Bits: []signal.Bit{{Name: "a0", Driver: 0,
				Pins: []signal.Pin{{Loc: geom.Pt(2, 4)}, {Loc: geom.Pt(20, 4)}}}}},
			{Name: "b", Bits: []signal.Bit{{Name: "b0", Driver: 0,
				Pins: []signal.Pin{{Loc: geom.Pt(2, 4)}, {Loc: geom.Pt(20, 4)}}}}},
		},
	}

	// Sanity: the uncorrupted solve stays legal.
	clean, err := Run(d, Options{Method: PrimalDual, Audit: AuditStrict})
	if err != nil {
		t.Fatalf("clean run failed strict audit: %v", err)
	}
	if clean.Audit == nil || !clean.Audit.OK() {
		t.Fatal("clean run has dirty audit")
	}

	plan := faultinject.NewPlan().Arm(faultinject.PDCapacity, faultinject.Action{Corrupt: true})
	ctx := faultinject.With(context.Background(), plan)
	res, err := RunCtx(ctx, d, Options{Method: PrimalDual, Audit: AuditWarn})
	if err != nil {
		t.Fatalf("corrupted run errored before audit: %v", err)
	}
	if plan.Fired(faultinject.PDCapacity) == 0 {
		t.Fatal("corruption site never fired")
	}
	if res.Audit == nil || res.Audit.Count(audit.OverCapacity) == 0 {
		t.Fatalf("audit missed the injected overflow: %+v", res.Audit)
	}

	// Strict mode turns the caught corruption into a failed run with the
	// populated result attached for diagnosis.
	ctx = faultinject.With(context.Background(),
		faultinject.NewPlan().Arm(faultinject.PDCapacity, faultinject.Action{Corrupt: true}))
	res, err = RunCtx(ctx, d, Options{Method: PrimalDual, Audit: AuditStrict})
	if err == nil {
		t.Fatal("strict audit accepted corrupted capacities")
	}
	if res == nil || res.Audit == nil || res.Audit.OK() {
		t.Error("strict failure missing the diagnostic report")
	}
}

// TestPDCommitFaultReturnsPartial pins the pd.commit seam: an injected
// error mid-solve surfaces as a failed primal-dual rung carrying the
// partial (legal) assignment semantics the cancellation path has.
func TestPDCommitFaultReturnsPartial(t *testing.T) {
	p := testProblem(t)
	plan := faultinject.NewPlan().Arm(faultinject.PDCommit, faultinject.Action{Err: "commit chaos", After: 3})
	ctx := faultinject.With(context.Background(), plan)
	_, err := RunProblemCtx(ctx, p, Options{Method: PrimalDual})
	if err == nil || !strings.Contains(err.Error(), "commit chaos") {
		t.Fatalf("err = %v, want injected commit failure", err)
	}
	var fe *faultinject.Error
	if !errors.As(err, &fe) {
		t.Errorf("injected error type lost: %v", err)
	}
}
