package hier

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/benchgen"
	"repro/internal/route"
)

// flipCtx cancels deterministically after `after` Err() calls.
type flipCtx struct {
	context.Context
	calls int64
	after int64
}

func (c *flipCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestSolveCtxMidCancelPartialLegal audits the hierarchical solver under
// mid-solve cancellation: whatever tiles and sweep steps committed before
// the flip, the returned partial assignment must be well-formed (choices in
// range or -1), capacity-legal, and priced by (3a) over exactly that
// assignment — never a half-committed plan.
func TestSolveCtxMidCancelPartialLegal(t *testing.T) {
	d := benchgen.Scale(benchgen.Industry(5), 0.06).Generate()
	p, err := route.Build(d, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, after := range []int64{1, 3, 10, 50} {
		ctx := &flipCtx{Context: context.Background(), after: after}
		res, err := SolveCtx(ctx, p, Options{Tiles: 3, TimePerTile: time.Second})
		if err == nil {
			continue // flip landed past the last check; full solve is fine
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("after=%d: err = %v, want context.Canceled", after, err)
		}
		if len(res.Assignment.Choice) != len(p.Objects) {
			t.Fatalf("after=%d: assignment covers %d of %d objects",
				after, len(res.Assignment.Choice), len(p.Objects))
		}
		for i, c := range res.Assignment.Choice {
			if c != -1 && (c < 0 || c >= len(p.Cands[i])) {
				t.Fatalf("after=%d: object %d choice %d out of range", after, i, c)
			}
		}
		if want := p.ObjectiveValue(res.Assignment); res.Objective != want {
			t.Errorf("after=%d: Objective = %v, want %v (over the partial assignment)",
				after, res.Objective, want)
		}
		r := p.ExtractRouting(res.Assignment)
		u := r.UsageOf(p.Grid)
		if of := u.Overflow(); of != 0 {
			t.Errorf("after=%d: partial assignment overflows by %d", after, of)
		}
	}
}
