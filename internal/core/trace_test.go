package core

import (
	"context"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/obs"
)

// TestRunCtxRootSpanNesting checks the traced flow: RunCtx opens a single
// root "run" span and every stage span nests under it.
func TestRunCtxRootSpanNesting(t *testing.T) {
	d := benchgen.Scale(benchgen.Industry(1), 0.04).Generate()
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	if _, err := RunCtx(ctx, d, Options{Method: PrimalDual}); err != nil {
		t.Fatal(err)
	}
	rep := rec.Report()
	roots := 0
	for _, s := range rep.Spans {
		switch {
		case s.Name == "run":
			roots++
			if s.Parent != "" {
				t.Errorf("root span has parent %q", s.Parent)
			}
		case s.Parent != "run":
			t.Errorf("stage %q has parent %q, want run", s.Name, s.Parent)
		}
	}
	if roots != 1 {
		t.Errorf("got %d root spans, want 1", roots)
	}
}

// TestRunProblemCtxReusesOpenSpan pins that the prebuilt-problem entry point
// does not open a second root when the caller already did (RunCtx's own
// call path).
func TestRunProblemCtxReusesOpenSpan(t *testing.T) {
	p := testProblem(t)
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	sp := rec.StartSpan("outer")
	ctx = obs.WithSpan(ctx, sp)
	if _, err := RunProblemCtx(ctx, p, Options{Method: PrimalDual}); err != nil {
		t.Fatal(err)
	}
	sp.End()
	rep := rec.Report()
	for _, s := range rep.Spans {
		if s.Name == "run" {
			t.Errorf("RunProblemCtx opened a root span under an existing one: %+v", rep.Spans)
		}
		if s.Name != "outer" && s.Parent != "outer" {
			t.Errorf("stage %q parent = %q, want outer", s.Name, s.Parent)
		}
	}
}
