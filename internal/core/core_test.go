package core

import (
	"testing"
	"time"

	"repro/internal/benchgen"
	"repro/internal/postopt"
	"repro/internal/route"
)

func testProblem(t *testing.T) *route.Problem {
	t.Helper()
	d := benchgen.Scale(benchgen.Industry(1), 0.04).Generate()
	p, err := route.Build(d, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunPrimalDual(t *testing.T) {
	d := benchgen.Scale(benchgen.Industry(1), 0.04).Generate()
	res, err := Run(d, Options{Method: PrimalDual})
	if err != nil {
		t.Fatal(err)
	}
	if res.Routing == nil || res.Usage == nil {
		t.Fatal("missing routing state")
	}
	if res.Usage.Overflow() != 0 {
		t.Errorf("overflow = %d", res.Usage.Overflow())
	}
	if res.Metrics.Bench != d.Name {
		t.Errorf("metrics bench = %s", res.Metrics.Bench)
	}
	if res.Metrics.Runtime <= 0 {
		t.Error("runtime not captured")
	}
}

func TestRunILPWithWarmStart(t *testing.T) {
	p := testProblem(t)
	res, err := RunProblem(p, Options{
		Method:       ILP,
		ILPTimeLimit: 10 * time.Second,
		ILPWarmStart: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	pdRes, err := RunProblem(p, Options{Method: PrimalDual})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut && res.Metrics.RoutedGroups < pdRes.Metrics.RoutedGroups {
		t.Errorf("optimal ILP routed %d < PD %d groups", res.Metrics.RoutedGroups, pdRes.Metrics.RoutedGroups)
	}
}

func TestRunPostOptPipeline(t *testing.T) {
	p := testProblem(t)
	plain, err := RunProblem(p, Options{Method: PrimalDual})
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunProblem(p, Options{
		Method: PrimalDual, PostOpt: true, Clustering: true, Refinement: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.Metrics.RoutedGroups < plain.Metrics.RoutedGroups {
		t.Errorf("post-opt lost groups: %d -> %d", plain.Metrics.RoutedGroups, full.Metrics.RoutedGroups)
	}
	if full.Metrics.VioDst > full.VioBefore {
		t.Errorf("refinement increased violations: %d -> %d", full.VioBefore, full.Metrics.VioDst)
	}
	if full.Usage.Overflow() != 0 {
		t.Error("post-opt overflowed")
	}
}

func TestRunRejectsUnknownMethod(t *testing.T) {
	p := testProblem(t)
	if _, err := RunProblem(p, Options{Method: Method(99)}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestRunRejectsInvalidDesign(t *testing.T) {
	d := benchgen.Scale(benchgen.Industry(1), 0.04).Generate()
	d.Grid.W = 1
	if _, err := Run(d, Options{}); err == nil {
		t.Fatal("invalid design accepted")
	}
}

func TestMethodString(t *testing.T) {
	if PrimalDual.String() != "Primal-Dual" || ILP.String() != "ILP" {
		t.Error("method names wrong")
	}
}

func TestVioBeforeWithoutPostOpt(t *testing.T) {
	p := testProblem(t)
	res, err := RunProblem(p, Options{Method: PrimalDual})
	if err != nil {
		t.Fatal(err)
	}
	if res.VioBefore != res.Metrics.VioDst {
		t.Errorf("without post-opt VioBefore %d != VioDst %d", res.VioBefore, res.Metrics.VioDst)
	}
}

// TestRefineCountsMatchFreshScans pins refinement's Vio(dst) bookkeeping on
// designs where it fixes pins: the count before refinement equals the one a
// run without refinement reports, and the count after equals a fresh scan
// of the refined routing.
func TestRefineCountsMatchFreshScans(t *testing.T) {
	for _, c := range []struct{ n, fixed int }{{1, 1}, {4, 3}, {7, 1}} {
		d := benchgen.Scale(benchgen.Industry(c.n), 0.1).Generate()
		p, err := route.Build(d, route.Options{})
		if err != nil {
			t.Fatal(err)
		}
		on := Options{Method: PrimalDual, PostOpt: true, Clustering: true, Refinement: true}
		full, err := RunProblem(p, on)
		if err != nil {
			t.Fatal(err)
		}
		off := on
		off.Refinement = false
		unrefined, err := RunProblem(p, off)
		if err != nil {
			t.Fatal(err)
		}
		if full.Refine.PinsFixed != c.fixed {
			t.Errorf("Industry%d: refinement fixed %d pins, want %d", c.n, full.Refine.PinsFixed, c.fixed)
		}
		if full.VioBefore != unrefined.VioBefore || full.Refine.GroupsBefore != unrefined.VioBefore {
			t.Errorf("Industry%d: VioBefore %d, GroupsBefore %d, unrefined run %d",
				c.n, full.VioBefore, full.Refine.GroupsBefore, unrefined.VioBefore)
		}
		fresh := postopt.CountViolatedGroups(d, full.Routing, on.Post)
		if full.Refine.GroupsAfter != fresh || full.Metrics.VioDst != fresh {
			t.Errorf("Industry%d: GroupsAfter %d, VioDst %d, fresh scan %d",
				c.n, full.Refine.GroupsAfter, full.Metrics.VioDst, fresh)
		}
	}
}
