package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"

	"repro/internal/exact"
	"repro/internal/hier"
	"repro/internal/pd"
	"repro/internal/route"
)

// Solver is one rung of the selection chain: it produces a global
// assignment for a built problem. Implementations must honor ctx
// cancellation. The built-in methods are exposed through MethodSolver;
// tests and embedders can supply their own rungs via Fallback.Chain.
type Solver interface {
	// Name identifies the solver in Result.SolverUsed and error messages.
	Name() string
	// Solve computes an assignment. A non-nil error (or a panic, which the
	// runner converts into a *PanicError) makes the chain degrade to the
	// next rung.
	Solve(ctx context.Context, p *route.Problem, opt Options) (SolveOutcome, error)
}

// SolveOutcome is what one solver rung produced.
type SolveOutcome struct {
	// Assignment is the selection (-1 entries are unrouted objects).
	Assignment route.Assignment
	// TimedOut reports that a time limit interrupted the proof of
	// optimality; the assignment is still usable.
	TimedOut bool
}

// Fallback configures graceful degradation of the selection solve.
type Fallback struct {
	// Enabled turns the chain on: when the requested method panics, times
	// out without routing anything, exceeds the model-size guard, or
	// reports infeasibility, the run degrades along ILP -> Hierarchical ->
	// PrimalDual instead of failing. Context cancellation is never
	// swallowed — it aborts the whole chain.
	Enabled bool
	// Chain overrides the default degradation sequence derived from
	// Options.Method. Mainly a seam for tests and custom solvers.
	Chain []Solver
}

// Attempt records one failed rung of the fallback chain.
type Attempt struct {
	// Solver is the rung's name.
	Solver string
	// Err is the failure's text.
	Err string
}

// ExhaustedError reports that every rung of the selection chain failed: no
// solver — requested method or fallback — produced an assignment. Attempts
// lists each rung's failure in order; Unwrap exposes the final rung's
// error so errors.Is/As still reach the root cause.
type ExhaustedError struct {
	// Attempts records every failed rung, in chain order.
	Attempts []Attempt
	cause    error
}

// Error lists every failed rung so callers see the whole degradation
// history, not just the last failure.
func (e *ExhaustedError) Error() string {
	parts := make([]string, len(e.Attempts))
	for i, a := range e.Attempts {
		parts[i] = a.Solver + ": " + a.Err
	}
	return fmt.Sprintf("core: all %d solver rungs failed: %s", len(e.Attempts), strings.Join(parts, "; "))
}

// Unwrap exposes the final rung's error.
func (e *ExhaustedError) Unwrap() error { return e.cause }

// PanicError is a solver panic converted into an error by the chain
// runner, preserving the offending solver's name and stack.
type PanicError struct {
	// Solver names the rung that panicked.
	Solver string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error formats the panic with its origin attached.
func (e *PanicError) Error() string {
	return fmt.Sprintf("core: solver %s panicked: %v", e.Solver, e.Value)
}

// MethodSolver returns the built-in solver implementing a method.
func MethodSolver(m Method) Solver {
	switch m {
	case ILP:
		return ilpSolver{}
	case Hierarchical:
		return hierSolver{}
	default:
		return pdSolver{}
	}
}

// chain assembles the rung sequence for a run: the requested method,
// followed — when fallback is enabled — by the strictly-faster methods
// below it. An explicit Fallback.Chain wins outright.
func (opt Options) chain() []Solver {
	if opt.Fallback.Enabled && opt.Fallback.Chain != nil {
		return opt.Fallback.Chain
	}
	rungs := []Solver{MethodSolver(opt.Method)}
	if opt.Fallback.Enabled {
		switch opt.Method {
		case ILP:
			rungs = append(rungs, MethodSolver(Hierarchical), MethodSolver(PrimalDual))
		case Hierarchical:
			rungs = append(rungs, MethodSolver(PrimalDual))
		}
	}
	return rungs
}

// runRung executes one solver with panic isolation: a panic inside the
// rung is recovered and returned as a *PanicError instead of unwinding
// through core.Run.
func runRung(ctx context.Context, s Solver, p *route.Problem, opt Options) (out SolveOutcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Solver: s.Name(), Value: r, Stack: debug.Stack()}
		}
	}()
	return s.Solve(ctx, p, opt)
}

// pdSolver wraps the primal-dual flow (Algorithm 2).
type pdSolver struct{}

func (pdSolver) Name() string { return PrimalDual.String() }

func (pdSolver) Solve(ctx context.Context, p *route.Problem, opt Options) (SolveOutcome, error) {
	r, err := pd.SolveCtx(ctx, p)
	if errors.Is(err, context.DeadlineExceeded) {
		// A deadline is a time budget, not a failure: the committed part of
		// the assignment is legal, so report it as a timed-out outcome.
		return SolveOutcome{Assignment: r.Assignment, TimedOut: true}, nil
	}
	if err != nil {
		return SolveOutcome{}, err
	}
	return SolveOutcome{Assignment: r.Assignment}, nil
}

// ilpSolver wraps the exact flow. Options.ILPTimeLimit becomes a context
// deadline for the rung, giving the whole solve path one deadline
// mechanism.
type ilpSolver struct{}

func (ilpSolver) Name() string { return ILP.String() }

func (ilpSolver) Solve(ctx context.Context, p *route.Problem, opt Options) (SolveOutcome, error) {
	if opt.ILPTimeLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.ILPTimeLimit)
		defer cancel()
	}
	eopt := exact.Options{MaxVars: opt.ILPMaxVars}
	if opt.ILPWarmStart {
		warm, err := pd.SolveCtx(ctx, p)
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return SolveOutcome{}, err
		}
		// On deadline the partial warm assignment still serves as an
		// incumbent; the exact solve below reports the timeout.
		eopt.WarmStart = &warm.Assignment
	}
	r, err := exact.SolveCtx(ctx, p, eopt)
	if err != nil {
		return SolveOutcome{}, err
	}
	return SolveOutcome{Assignment: r.Assignment, TimedOut: r.TimedOut}, nil
}

// hierSolver wraps the divide-and-conquer exact flow.
type hierSolver struct{}

func (hierSolver) Name() string { return Hierarchical.String() }

func (hierSolver) Solve(ctx context.Context, p *route.Problem, opt Options) (SolveOutcome, error) {
	r, err := hier.SolveCtx(ctx, p, hier.Options{Tiles: opt.HierTiles, TimePerTile: opt.HierTimePerTile})
	if errors.Is(err, context.DeadlineExceeded) {
		return SolveOutcome{Assignment: r.Assignment, TimedOut: true}, nil
	}
	if err != nil {
		return SolveOutcome{}, err
	}
	return SolveOutcome{Assignment: r.Assignment, TimedOut: r.TilesTimedOut > 0}, nil
}
