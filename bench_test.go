package streak

// Benchmarks regenerating the paper's tables and figures at reduced scale
// (go test -bench=. -benchmem). Each benchmark measures the work behind
// one table or figure of §V; the cmd/experiments binary prints the full
// paper-style rows. Custom per-op metrics report the quality numbers
// (route %, regularity, violations) alongside runtime.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/benchgen"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/hier"
	"repro/internal/metrics"
	"repro/internal/pd"
	"repro/internal/postopt"
	"repro/internal/report"
	"repro/internal/route"
	"repro/internal/solvecache"
	"repro/internal/steiner"

	"repro/internal/geom"
)

// benchScale keeps the full bench suite fast enough for CI while
// preserving every comparison's shape.
const benchScale = 0.06

func benchProblem(b *testing.B, n int) *route.Problem {
	b.Helper()
	d := benchgen.Scale(benchgen.Industry(n), benchScale).Generate()
	p, err := route.Build(d, route.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkTable1Manual measures the manual-design baseline rows of
// Table I.
func BenchmarkTable1Manual(b *testing.B) {
	for _, n := range []int{1, 5} {
		b.Run(fmt.Sprintf("Industry%d", n), func(b *testing.B) {
			p := benchProblem(b, n)
			b.ResetTimer()
			var m metrics.Metrics
			for i := 0; i < b.N; i++ {
				res := baseline.Route(p)
				m = metrics.Compute(p.Design, res.Routing, res.Usage, postopt.Options{})
			}
			b.ReportMetric(m.RouteFrac*100, "route%")
			b.ReportMetric(float64(m.Overflow), "overflow")
		})
	}
}

// BenchmarkTable1PrimalDual measures the primal-dual rows of Table I.
func BenchmarkTable1PrimalDual(b *testing.B) {
	for _, n := range []int{1, 3, 5, 7} {
		b.Run(fmt.Sprintf("Industry%d", n), func(b *testing.B) {
			p := benchProblem(b, n)
			b.ResetTimer()
			var m metrics.Metrics
			for i := 0; i < b.N; i++ {
				res := pd.Solve(p)
				r := p.ExtractRouting(res.Assignment)
				m = metrics.Compute(p.Design, r, r.UsageOf(p.Grid), postopt.Options{})
			}
			b.ReportMetric(m.RouteFrac*100, "route%")
			b.ReportMetric(m.AvgReg*100, "reg%")
		})
	}
}

// BenchmarkTable1ILP measures the exact ILP rows of Table I (with a small
// time limit; congested cases hit it like the paper's > 3600 s rows).
func BenchmarkTable1ILP(b *testing.B) {
	for _, n := range []int{1, 7} {
		b.Run(fmt.Sprintf("Industry%d", n), func(b *testing.B) {
			p := benchProblem(b, n)
			warm := pd.Solve(p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				_, err := exact.SolveCtx(ctx, p, exact.Options{WarmStart: &warm.Assignment})
				cancel()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2PostOpt measures the full Table II flow: primal-dual plus
// clustering plus refinement.
func BenchmarkTable2PostOpt(b *testing.B) {
	for _, n := range []int{1, 6} {
		b.Run(fmt.Sprintf("Industry%d", n), func(b *testing.B) {
			p := benchProblem(b, n)
			b.ResetTimer()
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.RunProblem(p, core.Options{
					Method: core.PrimalDual, PostOpt: true, Clustering: true, Refinement: true,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.VioBefore), "vioBefore")
			b.ReportMetric(float64(res.Metrics.VioDst), "vioAfter")
		})
	}
}

// BenchmarkFig11Heatmap and BenchmarkFig12Heatmap measure the congestion
// map generation for Industry7 and Industry6.
func BenchmarkFig11Heatmap(b *testing.B) { benchHeatmap(b, 7) }

// BenchmarkFig12Heatmap is the Industry6 (congested) variant.
func BenchmarkFig12Heatmap(b *testing.B) { benchHeatmap(b, 6) }

func benchHeatmap(b *testing.B, n int) {
	p := benchProblem(b, n)
	man := baseline.Route(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Heatmap(io.Discard, man.Usage, 56)
	}
}

// BenchmarkFig13Scalability measures primal-dual runtime growth with pin
// count — the scalability study. Sub-benchmarks are labeled with the total
// pin count; compare ns/op across them for the Fig. 13 curve.
func BenchmarkFig13Scalability(b *testing.B) {
	for _, f := range []float64{0.03, 0.06, 0.12} {
		spec := benchgen.Scale(benchgen.Industry(2), f)
		d := spec.Generate()
		p, err := route.Build(d, route.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("pins=%d", d.NumPins()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pd.Solve(p)
			}
		})
	}
}

// BenchmarkFig14Clustering measures the clustering ablation: the post
// flow with and without bottom-up clustering.
func BenchmarkFig14Clustering(b *testing.B) {
	for _, clustering := range []bool{false, true} {
		b.Run(fmt.Sprintf("clustering=%v", clustering), func(b *testing.B) {
			p := benchProblem(b, 6)
			b.ResetTimer()
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.RunProblem(p, core.Options{
					Method: core.PrimalDual, PostOpt: true, Clustering: clustering, Refinement: true,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Metrics.RouteFrac*100, "route%")
			b.ReportMetric(res.Metrics.AvgReg*100, "reg%")
		})
	}
}

// BenchmarkClusterAndRoute measures bottom-up clustering (Algorithm 3)
// alone on Industry6 at scale 0.2, where the primal-dual selection leaves
// 92 bits to it. Each op clusters a fresh copy of the primal-dual routing
// and usage, built outside the timer.
func BenchmarkClusterAndRoute(b *testing.B) {
	d := benchgen.Scale(benchgen.Industry(6), 0.2).Generate()
	p, err := route.Build(d, route.Options{})
	if err != nil {
		b.Fatal(err)
	}
	a := pd.Solve(p).Assignment
	b.ReportAllocs()
	b.ResetTimer()
	var st postopt.ClusterStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := p.ExtractRouting(a)
		u := r.UsageOf(p.Grid)
		b.StartTimer()
		st = postopt.ClusterAndRoute(p, r, u, postopt.Options{})
	}
	b.ReportMetric(float64(st.BitsRouted), "bits")
}

// BenchmarkFig15Refinement measures the refinement ablation: violations
// and wirelength with and without the detour stage.
func BenchmarkFig15Refinement(b *testing.B) {
	for _, refine := range []bool{false, true} {
		b.Run(fmt.Sprintf("refine=%v", refine), func(b *testing.B) {
			p := benchProblem(b, 7)
			b.ResetTimer()
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.RunProblem(p, core.Options{
					Method: core.PrimalDual, PostOpt: true, Clustering: true, Refinement: refine,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Metrics.VioDst), "vio")
			b.ReportMetric(res.Metrics.WL/1e5, "WLe5")
		})
	}
}

// BenchmarkAblationBendCost compares backbone generation with and without
// the bend cost (DESIGN.md ablation: bend-aware BI1S matters for signal
// groups because every bend becomes a via stack on every bit).
func BenchmarkAblationBendCost(b *testing.B) {
	pins := []geom.Point{
		geom.Pt(0, 0), geom.Pt(14, 3), geom.Pt(7, 9), geom.Pt(20, 12), geom.Pt(3, 17),
	}
	for _, w := range []int{0, 4} {
		b.Run(fmt.Sprintf("bendWeight=%d", w), func(b *testing.B) {
			var t geom.Tree
			for i := 0; i < b.N; i++ {
				t = steiner.Iterated1Steiner(pins, steiner.Options{BendWeight: w})
			}
			b.ReportMetric(float64(t.Bends()), "bends")
			b.ReportMetric(float64(t.WireLength()), "wl")
		})
	}
}

// BenchmarkAblationCandidates sweeps the candidate budget per object
// (DESIGN.md ablation: more candidates buy routability at build cost).
func BenchmarkAblationCandidates(b *testing.B) {
	d := benchgen.Scale(benchgen.Industry(5), benchScale).Generate()
	for _, maxC := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("maxCandidates=%d", maxC), func(b *testing.B) {
			// Design generation above is setup, not the measured
			// build+solve work.
			b.ResetTimer()
			var routeFrac float64
			for i := 0; i < b.N; i++ {
				p, err := route.Build(d, route.Options{MaxCandidates: maxC})
				if err != nil {
					b.Fatal(err)
				}
				res := pd.Solve(p)
				r := p.ExtractRouting(res.Assignment)
				routeFrac = metrics.Compute(d, r, nil, postopt.Options{}).RouteFrac
			}
			b.ReportMetric(routeFrac*100, "route%")
		})
	}
}

// BenchmarkAblationRegWeight sweeps the regularity weight in the selection
// objective (DESIGN.md ablation: the knob trades Avg(Reg) against cost).
func BenchmarkAblationRegWeight(b *testing.B) {
	d := benchgen.Scale(benchgen.Industry(7), benchScale).Generate()
	for _, w := range []float64{1, 20, 200} {
		b.Run(fmt.Sprintf("regWeight=%v", w), func(b *testing.B) {
			p, err := route.Build(d, route.Options{RegWeight: w})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var reg float64
			for i := 0; i < b.N; i++ {
				res := pd.Solve(p)
				r := p.ExtractRouting(res.Assignment)
				reg = metrics.AvgReg(d, r)
			}
			b.ReportMetric(reg*100, "reg%")
		})
	}
}

// BenchmarkBuildParallel measures the candidate-generation fan-out of
// route.Build on Industry7: Workers=1 is the sequential baseline,
// Workers=GOMAXPROCS the parallel build. Candidate sets are bit-identical
// across worker counts. ns/op is the build's wall clock; B/op and
// allocs/op count everything one build allocates, and barely move with
// the worker count.
func BenchmarkBuildParallel(b *testing.B) {
	d := benchgen.Scale(benchgen.Industry(7), benchScale).Generate()
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := route.Build(d, route.Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPairCost measures the dense pair-cost kernel: one op is a full
// pricing sweep over every partnered candidate pair, the access pattern of
// the primal-dual and tile solvers.
func BenchmarkPairCost(b *testing.B) {
	p := benchProblem(b, 7)
	b.ResetTimer()
	var sink float64
	lookups := 0
	for n := 0; n < b.N; n++ {
		lookups = 0
		for i := range p.Cands {
			for _, q := range p.Partners(i) {
				if q < i {
					continue
				}
				for j := range p.Cands[i] {
					for r := range p.Cands[q] {
						sink += p.PairCost(i, j, q, r)
						lookups++
					}
				}
			}
		}
	}
	if sink == 0 {
		b.Log("all pair costs zero") // keep the loop un-eliminated
	}
	b.ReportMetric(float64(lookups), "lookups/op")
}

// BenchmarkHierarchicalVsMonolithic compares the paper's future-work
// divide-and-conquer exact flow (§VI) against the monolithic ILP on the
// same problem: tiles shrink each model so the exact solver finishes where
// the whole-design formulation would time out.
func BenchmarkHierarchicalVsMonolithic(b *testing.B) {
	p := benchProblem(b, 3)
	warm := pd.Solve(p)
	b.Run("monolithic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_, err := exact.SolveCtx(ctx, p, exact.Options{WarmStart: &warm.Assignment})
			cancel()
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, tiles := range []int{2, 4} {
		b.Run(fmt.Sprintf("tiles=%d", tiles), func(b *testing.B) {
			var res hier.Result
			for i := 0; i < b.N; i++ {
				res = hier.Solve(p, hier.Options{Tiles: tiles, TimePerTile: time.Second})
			}
			b.ReportMetric(float64(res.Assignment.RoutedObjects()), "routedObjs")
		})
	}
}

// BenchmarkCacheHit measures the content-addressed solve cache's exact-hit
// path against the cold solve it replaces on the same design
// (BenchmarkBuildParallel's Industry7 preset). The hit serves a cached
// Result after one key computation — a canonicalization hash over the
// design — so the cold/hit ratio is the interactive-serving win for
// resubmitted designs.
func BenchmarkCacheHit(b *testing.B) {
	ctx := context.Background()
	d := benchgen.Scale(benchgen.Industry(7), benchScale).Generate()
	opt := core.Options{}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunCtx(ctx, d, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		sv := solvecache.NewSolver(solvecache.NewCache(4))
		if _, _, err := sv.Solve(ctx, d, opt); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, outcome, err := sv.Solve(ctx, d, opt)
			if err != nil {
				b.Fatal(err)
			}
			if outcome != solvecache.OutcomeHit {
				b.Fatalf("outcome %q, want hit", outcome)
			}
			_ = res
		}
	})
}
