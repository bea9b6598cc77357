package route

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/topo"
)

// buildWithWorkers builds a mid-sized multi-group benchmark: big enough
// that the worker pool actually fans out and groups hold several partnered
// objects.
func buildWithWorkers(t *testing.T, workers int) *Problem {
	t.Helper()
	d := benchgen.Scale(benchgen.Industry(5), 0.06).Generate()
	p, err := Build(d, Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBuildParallelDeterminism asserts the tentpole guarantee: the
// parallel build produces bit-identical candidates and pair costs for any
// worker count.
func TestBuildParallelDeterminism(t *testing.T) {
	p1 := buildWithWorkers(t, 1)
	p8 := buildWithWorkers(t, 8)

	if !reflect.DeepEqual(p1.Objects, p8.Objects) {
		t.Fatal("object lists differ between Workers=1 and Workers=8")
	}
	if !reflect.DeepEqual(p1.GroupObjs, p8.GroupObjs) {
		t.Fatal("group-object lists differ between Workers=1 and Workers=8")
	}
	if !reflect.DeepEqual(p1.Cands, p8.Cands) {
		t.Fatal("candidate sets differ between Workers=1 and Workers=8")
	}
	for i := range p1.Cands {
		for _, q := range p1.Partners(i) {
			for j := range p1.Cands[i] {
				for r := range p1.Cands[q] {
					c1 := p1.PairCost(i, j, q, r)
					c8 := p8.PairCost(i, j, q, r)
					if c1 != c8 {
						t.Fatalf("PairCost(%d,%d,%d,%d) = %v (1 worker) vs %v (8 workers)",
							i, j, q, r, c1, c8)
					}
				}
			}
		}
	}
}

// TestPairCostMatchesDirect checks the dense kernel against a direct
// (uncached) evaluation of the regularity ratio and irregularity formula.
func TestPairCostMatchesDirect(t *testing.T) {
	p := buildWithWorkers(t, 4)
	checked := 0
	for i := range p.Cands {
		for _, q := range p.Partners(i) {
			for j := range p.Cands[i] {
				for r := range p.Cands[q] {
					ci, cq := &p.Cands[i][j], &p.Cands[q][r]
					want := topo.PairIrregularity(
						topo.Ratio(ci.Topo.Backbone, p.RepBit(i), cq.Topo.Backbone, p.RepBit(q)),
						p.Opt.RegWeight, p.Opt.NoShare,
						layerDist(ci, cq), p.Opt.LayerPenalty,
					)
					if got := p.PairCost(i, j, q, r); got != want {
						t.Fatalf("PairCost(%d,%d,%d,%d) = %v, direct evaluation %v", i, j, q, r, got, want)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no partnered candidate pairs checked; benchmark too small")
	}
}

// TestBuildCtxCanceled asserts a canceled context aborts the build.
func TestBuildCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := benchgen.Scale(benchgen.Industry(5), 0.06).Generate()
	if _, err := BuildCtx(ctx, d, Options{Workers: 4}); err == nil {
		t.Fatal("BuildCtx succeeded under a canceled context")
	}
}
