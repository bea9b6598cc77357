package route_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/core"
	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/signal"
)

// fuzzDesign picks one small design: Industry1–7 at scale 0.04, then the
// degenerate presets, wrapping around.
func fuzzDesign(preset uint8, seed int64) *signal.Design {
	degenerate := benchgen.DegeneratePresets()
	i := int(preset) % (7 + len(degenerate))
	if i < 7 {
		return benchgen.Scale(benchgen.Industry(i+1), 0.04).Generate()
	}
	d, err := benchgen.Degenerate(degenerate[i-7], seed)
	if err != nil {
		panic(err)
	}
	return d
}

// FuzzRebuildEqualsCold checks the incremental rebuild differentially. The
// input picks a preset, an RNG seed and up to eight chained scenario.Mutate
// edits. Each edited design is rebuilt from the previous step's problem,
// and the rebuild must equal a cold build of the same design on objects,
// group-object maps, candidates and every partnered pair cost, while
// regenerating exactly the objects of the changed groups. The last rebuilt
// problem must then solve audit-legal.
func FuzzRebuildEqualsCold(f *testing.F) {
	f.Fuzz(func(t *testing.T, preset uint8, seed int64, edits uint8) {
		ctx := context.Background()
		p, err := route.Build(fuzzDesign(preset, seed), route.Options{})
		if err != nil {
			t.Fatalf("base build: %v", err)
		}
		r := rand.New(rand.NewSource(seed))
		for step := 0; step < int(edits%9); step++ {
			d, edit := scenario.Mutate(r, p.Design)
			delta, ok := route.DiffDesigns(p.Design, d)
			if !ok {
				t.Fatalf("step %d (%s): edit not delta-compatible", step, edit)
			}
			inc, stats, err := p.RebuildCtx(ctx, d, delta)
			if err != nil {
				t.Fatalf("step %d (%s): rebuild: %v", step, edit, err)
			}
			cold, err := route.Build(d, p.Opt)
			if err != nil {
				t.Fatalf("step %d (%s): cold build: %v", step, edit, err)
			}
			if err := route.EqualProblems(cold, inc); err != nil {
				t.Fatalf("step %d (%s): rebuild differs from cold build: %v", step, edit, err)
			}
			changed := 0
			for _, gi := range delta.ChangedGroups {
				changed += len(cold.GroupObjs[gi])
			}
			if stats.Regenerated != changed || stats.KeptObjects != len(cold.Objects)-changed {
				t.Fatalf("step %d (%s): kept %d regenerated %d, want the %d objects of changed groups %v regenerated",
					step, edit, stats.KeptObjects, stats.Regenerated, changed, delta.ChangedGroups)
			}
			p = inc
		}
		res, err := core.RunProblemCtx(ctx, p, core.Options{Audit: core.AuditStrict})
		if err != nil {
			t.Fatalf("solve of the rebuilt problem: %v", err)
		}
		if res.Audit == nil || !res.Audit.OK() {
			t.Fatalf("rebuilt problem solved to an illegal routing: %v", res.Audit)
		}
	})
}
