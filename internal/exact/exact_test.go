package exact_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/exact"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/hier"
	"repro/internal/ilp"
	"repro/internal/obs"
	"repro/internal/pd"
	"repro/internal/route"
	"repro/internal/signal"
)

func tinyDesign() *signal.Design {
	return &signal.Design{
		Name: "tiny",
		Grid: signal.GridSpec{W: 20, H: 20, NumLayers: 4, EdgeCap: 4},
		Groups: []signal.Group{
			{Bits: []signal.Bit{
				{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(2, 2)}, {Loc: geom.Pt(12, 2)}}},
				{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(2, 3)}, {Loc: geom.Pt(12, 3)}}},
			}},
			{Bits: []signal.Bit{
				{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(4, 8)}, {Loc: geom.Pt(10, 14)}}},
			}},
		},
	}
}

// bruteForce enumerates every assignment (including unrouted) and returns
// the minimum legal objective.
func bruteForce(p *route.Problem) float64 {
	return bruteForceFrom(p, p.NewAssignment(), 0)
}

// bruteForceFrom enumerates every choice (including unrouted) of objects
// from.. with the earlier objects held at a's choices, and returns the
// minimum legal objective.
func bruteForceFrom(p *route.Problem, a route.Assignment, from int) float64 {
	a.Choice = append([]int(nil), a.Choice...)
	best := math.Inf(1)
	var rec func(i int)
	rec = func(i int) {
		if i == len(p.Objects) {
			if p.Legal(a) == nil {
				if v := p.ObjectiveValue(a); v < best {
					best = v
				}
			}
			return
		}
		for j := -1; j < len(p.Cands[i]); j++ {
			a.Choice[i] = j
			rec(i + 1)
		}
		a.Choice[i] = -1
	}
	rec(from)
	return best
}

func TestSolveMatchesBruteForce(t *testing.T) {
	p, err := route.Build(tinyDesign(), route.Options{MaxCandidates: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := exact.Solve(p, exact.Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.TimedOut {
		t.Fatal("unexpected timeout on tiny model")
	}
	want := bruteForce(p)
	if math.Abs(res.Objective-want) > 1e-6 {
		t.Fatalf("objective = %v, want %v", res.Objective, want)
	}
	if err := p.Legal(res.Assignment); err != nil {
		t.Fatalf("ILP assignment illegal: %v", err)
	}
}

func TestSolveMatchesBruteForceUnderTightCapacity(t *testing.T) {
	d := tinyDesign()
	d.Grid.EdgeCap = 1
	p, err := route.Build(d, route.Options{MaxCandidates: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := exact.Solve(p, exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForce(p)
	if math.Abs(res.Objective-want) > 1e-6 {
		t.Fatalf("objective = %v, want %v", res.Objective, want)
	}
	if err := p.Legal(res.Assignment); err != nil {
		t.Fatalf("assignment illegal: %v", err)
	}
}

// TestSolveCountsLazyRows: Cons is the model size, so it counts the
// lazy product and capacity rows next to the (3b) rows, and the exact.cons
// counter reports it. The tiny design gets one track per edge, and its
// first group's second bit a different shape, so that bit becomes an
// object of its own with pair terms against the first.
func TestSolveCountsLazyRows(t *testing.T) {
	d := tinyDesign()
	d.Grid.EdgeCap = 1
	d.Groups[0].Bits[1].Pins[1].Loc = geom.Pt(12, 5)
	p, err := route.Build(d, route.Options{MaxCandidates: 3})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	res, err := exact.SolveCtx(obs.WithRecorder(context.Background(), rec), p, exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, len(p.Objects))
	assign, nx := 0, 0
	for i := range p.Objects {
		all[i] = i
		if len(p.Cands[i]) > 0 {
			assign++
		}
		nx += len(p.Cands[i])
	}
	products := res.Vars - nx // one lazy row per product variable
	capRows := len(p.CapacityRows(all, func(l, idx int) int {
		x, y := p.Grid.EdgeCell(l, idx)
		return p.Grid.Cap(l, x, y)
	}))
	if products == 0 || capRows == 0 {
		t.Fatalf("tiny design has %d product and %d capacity rows; want both", products, capRows)
	}
	if want := assign + products + capRows; res.Cons != want {
		t.Errorf("Cons = %d, want %d (3b) + %d product + %d capacity = %d", res.Cons, assign, products, capRows, want)
	}
	if got := rec.Counter(obs.CounterExactCons); got != int64(res.Cons) {
		t.Errorf("exact.cons counter = %d, want %d", got, res.Cons)
	}
}

func TestSolveAtLeastAsGoodAsPrimalDual(t *testing.T) {
	p, err := route.Build(tinyDesign(), route.Options{MaxCandidates: 4})
	if err != nil {
		t.Fatal(err)
	}
	pdRes := pd.Solve(p)
	ilpRes, err := exact.Solve(p, exact.Options{WarmStart: &pdRes.Assignment})
	if err != nil {
		t.Fatal(err)
	}
	if ilpRes.Objective > pdRes.Objective+1e-6 {
		t.Fatalf("ILP objective %v worse than PD %v", ilpRes.Objective, pdRes.Objective)
	}
}

func TestSolveDeadlineReportsTimeout(t *testing.T) {
	// Congested multi-group design with a 1 ns deadline: must time out
	// gracefully, never crash, and stay legal if it reports an assignment.
	d := &signal.Design{
		Name: "congested",
		Grid: signal.GridSpec{W: 24, H: 24, NumLayers: 4, EdgeCap: 2},
	}
	for gi := 0; gi < 4; gi++ {
		var g signal.Group
		for b := 0; b < 3; b++ {
			g.Bits = append(g.Bits, signal.Bit{
				Driver: 0,
				Pins:   []signal.Pin{{Loc: geom.Pt(2, 2+gi+b)}, {Loc: geom.Pt(20, 2+gi+b)}},
			})
		}
		d.Groups = append(d.Groups, g)
	}
	p, err := route.Build(d, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	res, err := exact.SolveCtx(ctx, p, exact.Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.TimedOut {
		t.Skip("solver finished within a nanosecond timer tick; nothing to assert")
	}
	if res.Assignment.Choice != nil {
		if err := p.Legal(res.Assignment); err != nil {
			t.Fatalf("timed-out assignment illegal: %v", err)
		}
	}
}

func TestSolveMaxVarsGuard(t *testing.T) {
	p, err := route.Build(tinyDesign(), route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exact.Solve(p, exact.Options{MaxVars: 1}); err == nil {
		t.Fatal("MaxVars guard did not trigger")
	}
}

func TestWarmStartSpeedsOrEqualsCold(t *testing.T) {
	p, err := route.Build(tinyDesign(), route.Options{MaxCandidates: 4})
	if err != nil {
		t.Fatal(err)
	}
	pdRes := pd.Solve(p)
	warm, err := exact.Solve(p, exact.Options{WarmStart: &pdRes.Assignment})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := exact.Solve(p, exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-6 {
		t.Fatalf("warm %v != cold %v", warm.Objective, cold.Objective)
	}
}

// oracleDesign draws a small random design for the enumeration oracle: at
// most six two- or three-pin bits in one to three groups on a 10x10 grid
// with edge capacity 1 or 2. Bits of one group rarely share a similarity
// signature, so most groups split into several objects with pair terms
// (product rows), and the low capacity makes candidates collide (capacity
// rows). Branching that fixes both candidates of a costed pair on starts
// their product row infeasible, which the simplex covers with a Big-M
// artificial.
func oracleDesign(seed int64) *signal.Design {
	rng := rand.New(rand.NewSource(seed))
	d := &signal.Design{
		Name: fmt.Sprintf("oracle-%d", seed),
		Grid: signal.GridSpec{W: 10, H: 10, NumLayers: 4, EdgeCap: 1 + rng.Intn(2)},
	}
	for bits := 2 + rng.Intn(5); bits > 0; {
		var g signal.Group
		for n := min(bits, 1+rng.Intn(3)); n > 0; n-- {
			var b signal.Bit
			seen := make(map[geom.Point]bool)
			for pins := 2 + rng.Intn(4)/3; len(b.Pins) < pins; {
				pt := geom.Pt(rng.Intn(d.Grid.W), rng.Intn(d.Grid.H))
				if !seen[pt] {
					seen[pt] = true
					b.Pins = append(b.Pins, signal.Pin{Loc: pt})
				}
			}
			g.Bits = append(g.Bits, b)
			bits--
		}
		d.Groups = append(d.Groups, g)
	}
	return d
}

// TestSweepMatchesEnumeration is the tiny-instance oracle: on seeded random
// designs the exact solve must reach the enumerated optimum, and the
// hierarchical and primal-dual flows must stay legal and no better than it.
func TestSweepMatchesEnumeration(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 40
	}
	lazyActive := 0
	for trial := 0; trial < trials; trial++ {
		p, err := route.Build(oracleDesign(int64(trial)), route.Options{MaxCandidates: 3})
		if err != nil {
			t.Fatalf("trial %d: build: %v", trial, err)
		}
		want := bruteForce(p)

		rec := obs.NewRecorder()
		es, err := exact.SolveCtx(obs.WithRecorder(context.Background(), rec), p, exact.Options{})
		if err != nil {
			t.Fatalf("trial %d: exact: %v", trial, err)
		}
		if es.Status != ilp.Optimal || math.Abs(es.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: exact objective %v (status %v), want %v", trial, es.Objective, es.Status, want)
		}
		if err := p.Legal(es.Assignment); err != nil {
			t.Fatalf("trial %d: exact assignment illegal: %v", trial, err)
		}
		if rec.Counter(obs.CounterILPLazyActive) > 0 {
			lazyActive++
		}

		hs := hier.Solve(p, hier.Options{})
		if err := p.Legal(hs.Assignment); err != nil {
			t.Fatalf("trial %d: hier assignment illegal: %v", trial, err)
		}
		if hs.Objective < want-1e-6 {
			t.Fatalf("trial %d: hier objective %v beats the optimum %v", trial, hs.Objective, want)
		}

		ps := pd.Solve(p)
		if err := p.Legal(ps.Assignment); err != nil {
			t.Fatalf("trial %d: pd assignment illegal: %v", trial, err)
		}
		if ps.Objective < want-1e-6 {
			t.Fatalf("trial %d: pd objective %v beats the optimum %v", trial, ps.Objective, want)
		}
	}
	if lazyActive == 0 {
		t.Fatal("no trial activated a lazy capacity or product row")
	}
}

// TestSweepSubsetMatchesEnumeration is the oracle of a solve over a subset
// at residual capacity, which is how hier solves a tile. The first half of
// the objects is committed, each at its first fitting candidate; the solve
// over the second half must reach the enumerated optimum with the first
// half held fixed. Pair costs between the halves reach the model only
// through the Eq. 4 fold into the candidate costs.
func TestSweepSubsetMatchesEnumeration(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 40
	}
	crossPairs := 0
	for trial := 0; trial < trials; trial++ {
		p, err := route.Build(oracleDesign(int64(trial)), route.Options{MaxCandidates: 3})
		if err != nil {
			t.Fatalf("trial %d: build: %v", trial, err)
		}
		half := len(p.Objects) / 2
		committed := p.NewAssignment()
		u := grid.NewUsage(p.Grid)
		for i := 0; i < half; i++ {
			for j := range p.Cands[i] {
				if p.CandidateFits(i, j, u) {
					committed.Choice[i] = j
					for _, e := range p.Cands[i][j].Edges {
						u.Add(int(e.Layer), int(e.Idx), int(e.N))
					}
					break
				}
			}
		}
		var rest []int
		for i := half; i < len(p.Objects); i++ {
			rest = append(rest, i)
			for _, q := range p.Partners(i) {
				if q < half && committed.Choice[q] >= 0 {
					crossPairs++
				}
			}
		}
		want := bruteForceFrom(p, committed, half)

		res, err := exact.SolveObjects(context.Background(), p, rest, u.Avail, committed.Choice, exact.Options{})
		if err != nil {
			t.Fatalf("trial %d: subset solve: %v", trial, err)
		}
		if res.Status != ilp.Optimal || math.Abs(res.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: subset objective %v (status %v), want %v", trial, res.Objective, res.Status, want)
		}
		for i := 0; i < half; i++ {
			if res.Assignment.Choice[i] != committed.Choice[i] {
				t.Fatalf("trial %d: committed object %d moved from %d to %d", trial, i, committed.Choice[i], res.Assignment.Choice[i])
			}
		}
		if err := p.Legal(res.Assignment); err != nil {
			t.Fatalf("trial %d: subset assignment illegal: %v", trial, err)
		}
	}
	if crossPairs == 0 {
		t.Fatal("no trial committed a partner of a free object; the Eq. 4 fold went unchecked")
	}
	t.Logf("%d trials, %d committed cross-partner pairs", trials, crossPairs)
}
