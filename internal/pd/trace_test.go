package pd

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/route"
)

// TestSolveCtxNoRecorderNoSeries pins that a recorder never changes the
// solve: with and without one attached the result is the same.
func TestSolveCtxNoRecorderNoSeries(t *testing.T) {
	p, err := route.Build(busDesign(2, 3, 8), route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveCtx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	traced, err := SolveCtx(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != traced.Objective || res.Iterations != traced.Iterations {
		t.Errorf("tracing changed the solve: %+v vs %+v", res, traced)
	}
}
