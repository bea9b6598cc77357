package solvecache

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/benchgen"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/signal"
)

// TestECOSweep drives a randomized edit sequence through the cached solver
// and checks, at every step, that the served result is (a) legal under the
// independent audit for the *current* design and (b) metric-identical to a
// cold solve of that design. At least one step must have been served
// incrementally, or the sweep proved nothing.
func TestECOSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("ECO sweep solves the design twice per step")
	}
	ctx := context.Background()
	opt := core.Options{PostOpt: true}
	sv := NewSolver(NewCache(8))
	r := rand.New(rand.NewSource(42))
	d := benchgen.Scale(benchgen.Industry(1), 0.05).Generate()

	incrementals := 0
	for step := 0; step < 9; step++ {
		op := "initial"
		if step > 0 {
			d, op = scenario.Mutate(r, d)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("step %d (%s): mutated design invalid: %v", step, op, err)
		}

		res, outcome, err := sv.Solve(ctx, d, opt)
		if err != nil {
			t.Fatalf("step %d (%s): cached solve: %v", step, op, err)
		}
		if outcome == OutcomeIncremental {
			incrementals++
		}

		if rep := audit.Check(d, route.NewGrid(d), res.Routing); !rep.OK() {
			t.Fatalf("step %d (%s, %s): audit violations on served result: %v",
				step, op, outcome, rep.Err())
		}

		cold, err := core.RunCtx(ctx, d, opt)
		if err != nil {
			t.Fatalf("step %d (%s): cold solve: %v", step, op, err)
		}
		mGot, mWant := res.Metrics, cold.Metrics
		mGot.Runtime, mWant.Runtime = 0, 0
		if !reflect.DeepEqual(mGot, mWant) {
			t.Fatalf("step %d (%s, %s): metrics diverge from cold solve:\n got %+v\nwant %+v",
				step, op, outcome, mGot, mWant)
		}
	}
	if incrementals == 0 {
		t.Fatal("sweep never took the incremental path; the test is vacuous")
	}
	st := sv.Cache().Stats()
	t.Logf("sweep: %d incrementals, stats %+v", incrementals, st)
}

// TestRebuildFaultFallsBackCold: the incremental rebuild goes through the
// same build as a cold solve, so a route.build fault armed for one firing
// fails the rebuild; the solve must fall back to an authoritative cold
// solve whose result is audit-legal and equal to a plain cold solve.
func TestRebuildFaultFallsBackCold(t *testing.T) {
	opt := core.Options{}
	sv := NewSolver(NewCache(4))
	d := benchgen.Scale(benchgen.Industry(1), 0.04).Generate()
	if _, outcome, err := sv.Solve(context.Background(), d, opt); err != nil || outcome != OutcomeCold {
		t.Fatalf("base solve: outcome %q err %v, want cold", outcome, err)
	}

	edited := d.Clone()
	edited.Grid.Blockages = append(edited.Grid.Blockages, signal.Blockage{
		Layer: 0, Rect: geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(3, 3)}})
	plan, err := faultinject.ParseSpec(faultinject.RouteBuild + "=error#1")
	if err != nil {
		t.Fatal(err)
	}
	res, outcome, err := sv.Solve(faultinject.With(context.Background(), plan), edited, opt)
	if err != nil {
		t.Fatalf("faulted solve: %v", err)
	}
	if outcome != OutcomeColdFallback {
		t.Fatalf("outcome %q, want %q", outcome, OutcomeColdFallback)
	}
	if n := plan.Fired(faultinject.RouteBuild); n != 1 {
		t.Fatalf("route.build fired %d times, want 1", n)
	}
	if rep := audit.Check(edited, route.NewGrid(edited), res.Routing); !rep.OK() {
		t.Fatalf("fallback result violates the audit: %v", rep.Err())
	}
	cold, err := core.Run(edited, opt)
	if err != nil {
		t.Fatal(err)
	}
	mGot, mWant := res.Metrics, cold.Metrics
	mGot.Runtime, mWant.Runtime = 0, 0
	if !reflect.DeepEqual(mGot, mWant) {
		t.Fatalf("fallback metrics diverge from a cold solve:\n got %+v\nwant %+v", mGot, mWant)
	}
}

// TestSolveExactHit checks that resubmitting an identical design is served
// from the cache without solving, and that a renamed copy still hits.
func TestSolveExactHit(t *testing.T) {
	ctx := context.Background()
	opt := core.Options{}
	sv := NewSolver(NewCache(4))
	d := benchgen.Scale(benchgen.Industry(1), 0.04).Generate()

	first, outcome, err := sv.Solve(ctx, d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeCold {
		t.Fatalf("first solve outcome %q, want cold", outcome)
	}

	renamed := d.Clone()
	renamed.Name = "same-geometry-new-name"
	second, outcome, err := sv.Solve(ctx, renamed, opt)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeHit {
		t.Fatalf("second solve outcome %q, want hit", outcome)
	}
	if second.Metrics.Bench != renamed.Name {
		t.Fatalf("hit kept stale bench label %q", second.Metrics.Bench)
	}
	mGot, mWant := second.Metrics, first.Metrics
	mGot.Bench, mWant.Bench = "", ""
	mGot.Runtime, mWant.Runtime = 0, 0
	if !reflect.DeepEqual(mGot, mWant) {
		t.Fatalf("hit metrics diverge:\n got %+v\nwant %+v", mGot, mWant)
	}
	if st := sv.Cache().Stats(); st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 hit over 1 entry", st)
	}
}

// TestSolveBypass checks the two pass-through paths: a nil solver and an
// unfingerprintable custom fallback chain.
func TestSolveBypass(t *testing.T) {
	ctx := context.Background()
	d := benchgen.Scale(benchgen.Industry(1), 0.04).Generate()

	var nilSolver *Solver
	if _, outcome, err := nilSolver.Solve(ctx, d, core.Options{}); err != nil || outcome != OutcomeBypass {
		t.Fatalf("nil solver: outcome %q err %v, want bypass", outcome, err)
	}

	sv := NewSolver(NewCache(4))
	opt := core.Options{Fallback: core.Fallback{Chain: []core.Solver{core.MethodSolver(core.PrimalDual)}}}
	if _, outcome, err := sv.Solve(ctx, d, opt); err != nil || outcome != OutcomeBypass {
		t.Fatalf("custom chain: outcome %q err %v, want bypass", outcome, err)
	}
	if sv.Cache().Len() != 0 {
		t.Fatal("bypass populated the cache")
	}
}
