package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/benchgen"
	"repro/internal/route"
)

// panicSolver is an injected rung that always panics mid-solve.
type panicSolver struct{}

func (panicSolver) Name() string { return "panic-stub" }

func (panicSolver) Solve(ctx context.Context, p *route.Problem, opt Options) (SolveOutcome, error) {
	panic("injected solver failure")
}

// timeoutSolver is an injected rung that times out having routed nothing.
type timeoutSolver struct{}

func (timeoutSolver) Name() string { return "timeout-stub" }

func (timeoutSolver) Solve(ctx context.Context, p *route.Problem, opt Options) (SolveOutcome, error) {
	return SolveOutcome{Assignment: p.NewAssignment(), TimedOut: true}, nil
}

// TestFallbackChainDegradesToPrimalDual is the headline resilience test: a
// panicking rung and a timing-out rung both degrade, the primal-dual rung
// produces the result, and the independent auditor finds it legal.
func TestFallbackChainDegradesToPrimalDual(t *testing.T) {
	p := testProblem(t)
	res, err := RunProblem(p, Options{
		Method: ILP,
		Fallback: Fallback{
			Enabled: true,
			Chain:   []Solver{panicSolver{}, timeoutSolver{}, MethodSolver(PrimalDual)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Error("Degraded = false after two failed rungs")
	}
	if res.SolverUsed != PrimalDual.String() {
		t.Errorf("SolverUsed = %q, want %q", res.SolverUsed, PrimalDual.String())
	}
	if len(res.Attempts) != 2 {
		t.Fatalf("Attempts = %v, want 2 entries", res.Attempts)
	}
	if res.Attempts[0].Solver != "panic-stub" || !strings.Contains(res.Attempts[0].Err, "panicked") {
		t.Errorf("first attempt = %+v, want recorded panic", res.Attempts[0])
	}
	if res.Attempts[1].Solver != "timeout-stub" || !strings.Contains(res.Attempts[1].Err, "timed out") {
		t.Errorf("second attempt = %+v, want recorded timeout", res.Attempts[1])
	}
	if res.Metrics.RoutedGroups == 0 {
		t.Error("fallback result routed nothing")
	}
	rep := audit.Check(p.Design, p.Grid, res.Routing)
	if !rep.OK() {
		t.Errorf("fallback routing fails the legality audit: %s", rep.Summary())
	}
}

// TestFallbackDisabledSurfacesPanic proves panics are isolated into typed
// errors — not swallowed — when no fallback is configured.
func TestFallbackDisabledSurfacesPanic(t *testing.T) {
	p := testProblem(t)
	_, err := RunProblem(p, Options{
		Method:   PrimalDual,
		Fallback: Fallback{Enabled: true, Chain: []Solver{panicSolver{}}},
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Solver != "panic-stub" || len(pe.Stack) == 0 {
		t.Errorf("PanicError missing origin: solver %q, %d stack bytes", pe.Solver, len(pe.Stack))
	}
}

// TestFallbackDefaultChain exercises the built-in degradation order: an
// over-tight ILP model-size guard fails the exact rung, and the
// hierarchical rung takes over.
func TestFallbackDefaultChain(t *testing.T) {
	p := testProblem(t)
	res, err := RunProblem(p, Options{
		Method:     ILP,
		ILPMaxVars: 1, // every model exceeds this
		Fallback:   Fallback{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Error("Degraded = false after oversized ILP model")
	}
	if res.SolverUsed != Hierarchical.String() {
		t.Errorf("SolverUsed = %q, want %q", res.SolverUsed, Hierarchical.String())
	}
	if len(res.Attempts) != 1 || res.Attempts[0].Solver != ILP.String() {
		t.Errorf("Attempts = %+v, want one failed ILP rung", res.Attempts)
	}
}

// TestAuditStrictMode checks both audit outcomes: a real run passes, and a
// sabotaged grid fails with the report attached to the returned result.
func TestAuditStrictMode(t *testing.T) {
	d := benchgen.Scale(benchgen.Industry(1), 0.04).Generate()
	res, err := Run(d, Options{
		Method: PrimalDual, PostOpt: true, Clustering: true, Refinement: true,
		Audit: AuditStrict,
	})
	if err != nil {
		t.Fatalf("strict audit rejected a clean flow: %v", err)
	}
	if res.Audit == nil || !res.Audit.OK() {
		t.Fatal("audit report missing or dirty on a clean flow")
	}

	// Sabotage: zero out a used edge's capacity after solving, then re-run
	// the audit path by auditing the stale routing against the new grid.
	rep := audit.Check(d, res.Problem.Grid, res.Routing)
	if !rep.OK() {
		t.Fatalf("pre-sabotage audit dirty: %s", rep.Summary())
	}
	sabotaged := false
	for l := range res.Problem.Grid.Layers {
		for idx := 0; idx < res.Problem.Grid.EdgeCount(l) && !sabotaged; idx++ {
			if res.Usage.Use(l, idx) > 0 {
				x, y := res.Problem.Grid.EdgeCell(l, idx)
				res.Problem.Grid.SetCap(l, x, y, 0)
				sabotaged = true
			}
		}
	}
	if !sabotaged {
		t.Skip("no used edge to sabotage")
	}
	rep = audit.Check(d, res.Problem.Grid, res.Routing)
	if rep.Count(audit.OverCapacity) == 0 {
		t.Error("sabotaged capacity not detected")
	}
}

// TestRunCtxCanceledBeforeSolve returns context.Canceled without touching
// any solver.
func TestRunCtxCanceledBeforeSolve(t *testing.T) {
	p := testProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunProblemCtx(ctx, p, Options{Method: PrimalDual}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunCtxCancelMidSolve cancels an exact solve on an Industry benchmark
// whose monolithic ILP runs for about ten seconds: the run must return
// promptly with context.Canceled, leak no goroutines, and not be rescued
// by the fallback chain (cancellation is the caller giving up).
func TestRunCtxCancelMidSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second benchmark build")
	}
	d := benchgen.Scale(benchgen.Industry(1), 0.2).Generate()
	p, err := route.Build(d, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunProblemCtx(ctx, p, Options{Method: ILP, Fallback: Fallback{Enabled: true}})
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("solve did not return within 5s of cancellation")
	}

	// The solve path is synchronous; cancellation must leave no goroutines
	// behind. Poll briefly to let the test goroutine itself exit.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestRunCtxDeadlinePropagates drives the whole flow off one context
// deadline with no per-stage time limits configured.
func TestRunCtxDeadlinePropagates(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second benchmark build")
	}
	d := benchgen.Scale(benchgen.Industry(1), 0.2).Generate()
	p, err := route.Build(d, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := RunProblemCtx(ctx, p, Options{Method: ILP})
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("deadline ignored: solve took %v", took)
	}
	// A context deadline behaves like a time limit: the exact leg reports
	// TimedOut (empty or best-found assignment) rather than an error.
	if err != nil {
		t.Fatalf("err = %v, want timed-out result", err)
	}
	if !res.TimedOut {
		t.Error("TimedOut = false under an expired context deadline")
	}
}

func TestAuditModeString(t *testing.T) {
	if AuditOff.String() != "off" || AuditWarn.String() != "warn" || AuditStrict.String() != "strict" {
		t.Error("audit mode names wrong")
	}
}
