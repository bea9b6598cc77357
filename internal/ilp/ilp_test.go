package ilp

import (
	"context"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestLPSimpleKnapsackRelaxation(t *testing.T) {
	// min -3a -2b s.t. a + b <= 1.5, a,b in [0,1] -> a=1, b=0.5, obj -4.
	m := NewModel(2)
	m.SetObj(0, -3)
	m.SetObj(1, -2)
	m.AddConstraint([]Term{{0, 1}, {1, 1}}, 1.5)
	res := m.solveLP(context.Background(), m.cons, []float64{0, 0}, []float64{1, 1}, time.Time{}, new(lpScratch))
	if res.status != lpOptimal {
		t.Fatalf("status = %v", res.status)
	}
	if math.Abs(res.obj-(-4)) > 1e-6 {
		t.Fatalf("obj = %v, want -4", res.obj)
	}
	if math.Abs(res.x[0]-1) > 1e-6 || math.Abs(res.x[1]-0.5) > 1e-6 {
		t.Fatalf("x = %v", res.x)
	}
}

func TestLPWithFixedLowerBounds(t *testing.T) {
	// Fixing a=1 with constraint a + b <= 1 forces b=0; infeasible start
	// exercise for the Big-M artificial path is below.
	m := NewModel(2)
	m.SetObj(0, 1)
	m.SetObj(1, -1)
	m.AddConstraint([]Term{{0, 1}, {1, 1}}, 1)
	res := m.solveLP(context.Background(), m.cons, []float64{1, 0}, []float64{1, 1}, time.Time{}, new(lpScratch))
	if res.status != lpOptimal {
		t.Fatalf("status = %v", res.status)
	}
	if math.Abs(res.x[1]) > 1e-6 {
		t.Fatalf("b = %v, want 0", res.x[1])
	}
}

func TestLPInfeasible(t *testing.T) {
	// a + b <= 1 with both fixed to 1.
	m := NewModel(2)
	m.AddConstraint([]Term{{0, 1}, {1, 1}}, 1)
	res := m.solveLP(context.Background(), m.cons, []float64{1, 1}, []float64{1, 1}, time.Time{}, new(lpScratch))
	if res.status != lpInfeasible {
		t.Fatalf("status = %v, want infeasible", res.status)
	}
}

func TestLPNegativeRHSFeasible(t *testing.T) {
	// -a <= -0.5 means a >= 0.5; minimize a -> 0.5.
	m := NewModel(1)
	m.SetObj(0, 1)
	m.AddConstraint([]Term{{0, -1}}, -0.5)
	res := m.solveLP(context.Background(), m.cons, []float64{0}, []float64{1}, time.Time{}, new(lpScratch))
	if res.status != lpOptimal || math.Abs(res.x[0]-0.5) > 1e-6 {
		t.Fatalf("res = %+v", res)
	}
}

func TestLPDegenerateAndEquality(t *testing.T) {
	// x + y <= 1 and -x - y <= -1 emulate x + y == 1; min x -> x=0,y=1.
	m := NewModel(2)
	m.SetObj(0, 1)
	m.AddConstraint([]Term{{0, 1}, {1, 1}}, 1)
	m.AddConstraint([]Term{{0, -1}, {1, -1}}, -1)
	res := m.solveLP(context.Background(), m.cons, []float64{0, 0}, []float64{1, 1}, time.Time{}, new(lpScratch))
	if res.status != lpOptimal {
		t.Fatalf("status = %v", res.status)
	}
	if math.Abs(res.x[0]) > 1e-6 || math.Abs(res.x[1]-1) > 1e-6 {
		t.Fatalf("x = %v", res.x)
	}
}

func TestSolveTinyILP(t *testing.T) {
	// min -5a -4b -3c s.t. 2a+3b+c <= 5, 4a+b+2c <= 11, 3a+4b+2c <= 8.
	// Binary optimum: a=1, b=0 or 1... enumerate below to be sure.
	m := NewModel(3)
	m.SetObj(0, -5)
	m.SetObj(1, -4)
	m.SetObj(2, -3)
	for i := 0; i < 3; i++ {
		m.SetInteger(i)
	}
	m.AddConstraint([]Term{{0, 2}, {1, 3}, {2, 1}}, 5)
	m.AddConstraint([]Term{{0, 4}, {1, 1}, {2, 2}}, 11)
	m.AddConstraint([]Term{{0, 3}, {1, 4}, {2, 2}}, 8)
	res := Solve(m, SolveOptions{})
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	want := bruteForce(m)
	if math.Abs(res.Obj-want) > 1e-6 {
		t.Fatalf("obj = %v, want %v", res.Obj, want)
	}
}

func TestSolveInfeasibleILP(t *testing.T) {
	m := NewModel(2)
	m.SetInteger(0)
	m.SetInteger(1)
	m.AddConstraint([]Term{{0, -1}, {1, -1}}, -3) // a + b >= 3 impossible
	res := Solve(m, SolveOptions{})
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

// TestSolveNoVariables checks models without variables: every row reads
// 0 <= rhs, so the model is optimal at objective 0 exactly when no row, eager
// or lazy, has a negative right-hand side.
func TestSolveNoVariables(t *testing.T) {
	for _, tc := range []struct {
		name string
		rhs  []float64
		lazy bool
		want Status
	}{
		{"no rows", nil, false, Optimal},
		{"nonnegative rhs", []float64{0, 2}, false, Optimal},
		{"nonnegative lazy rhs", []float64{0, 2}, true, Optimal},
		{"negative rhs", []float64{1, -1}, false, Infeasible},
		{"negative lazy rhs", []float64{1, -1}, true, Infeasible},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewModel(0)
			for _, rhs := range tc.rhs {
				if tc.lazy {
					m.AddLazyConstraint(nil, rhs)
				} else {
					m.AddConstraint(nil, rhs)
				}
			}
			res := Solve(m, SolveOptions{})
			if res.Status != tc.want {
				t.Fatalf("status = %v, want %v", res.Status, tc.want)
			}
			if tc.want == Optimal && (res.Obj != 0 || res.X == nil || len(res.X) != 0) {
				t.Fatalf("optimal result obj=%v x=%v, want obj 0 and an empty x", res.Obj, res.X)
			}
		})
	}
}

// addProduct adds the eager product row x1 + x2 - y <= 1: with a
// nonnegative cost on the continuous y, minimization keeps y at
// max(0, x1 + x2 - 1), the product of the binaries x1 and x2.
func addProduct(m *Model, x1, x2, y int) {
	m.AddConstraint([]Term{{x1, 1}, {x2, 1}, {y, -1}}, 1)
}

// bruteForce enumerates every binary assignment and returns the best
// feasible objective. The walk is in Gray-code order, so each step flips
// one binary and updates only the rows it appears in. Continuous variables
// may only appear as the negative term of product rows x1 + x2 - y <= 1
// (see addProduct) and carry a nonnegative objective, so each takes the
// least value its rows allow.
func bruteForce(m *Model) float64 {
	rows := append(append([]constraint(nil), m.cons...), m.lazy...)
	lhs := make([]float64, len(rows))   // binary part of each row's left side
	prod := make([]Term, len(rows))     // each row's continuous term; Var -1 if none
	cols := make([][]Term, m.NumVars()) // cols[v]: {row, coef} of binary v
	var ints, conts []int
	for v, isInt := range m.integer {
		if isInt {
			ints = append(ints, v)
		} else {
			conts = append(conts, v)
		}
	}
	for r, con := range rows {
		prod[r].Var = -1
		for _, tm := range con.terms {
			if m.integer[tm.Var] {
				cols[tm.Var] = append(cols[tm.Var], Term{Var: r, Coef: tm.Coef})
			} else {
				prod[r] = tm
			}
		}
	}
	best := inf
	x := make([]float64, m.NumVars())
	for k := 1; ; k++ {
		if bruteFeasible(rows, lhs, prod, conts, x) {
			best = math.Min(best, m.Eval(x))
		}
		if k == 1<<len(ints) {
			return best
		}
		v := ints[bits.TrailingZeros(uint(k))]
		d := 1 - 2*x[v]
		x[v] += d
		for _, c := range cols[v] {
			lhs[c.Var] += d * c.Coef
		}
	}
}

// bruteFeasible checks the binaries of x against every plain row, then
// sets each continuous variable of x to the least value its product rows
// force and checks it against its upper bound.
func bruteFeasible(rows []constraint, lhs []float64, prod []Term, conts []int, x []float64) bool {
	for r, con := range rows {
		if prod[r].Var < 0 && lhs[r] > con.rhs+1e-9 {
			return false
		}
	}
	for _, v := range conts {
		x[v] = 0
	}
	for r, con := range rows {
		if p := prod[r]; p.Var >= 0 {
			x[p.Var] = math.Max(x[p.Var], (lhs[r]-con.rhs)/-p.Coef)
		}
	}
	for _, v := range conts {
		if x[v] > 1+1e-9 {
			return false
		}
	}
	return true
}

// randomModel builds a random selection-style ILP: groups of binaries with
// sum <= 1, random capacity constraints, random costs, and a few product
// terms — the same structure route.Problem generates.
func randomModel(r *rand.Rand) *Model {
	nGroups := 2 + r.Intn(3)
	perGroup := 2 + r.Intn(2)
	nBin := nGroups * perGroup
	nProd := r.Intn(3)
	m := NewModel(nBin + nProd)
	for i := 0; i < nBin; i++ {
		m.SetInteger(i)
		m.SetObj(i, float64(1+r.Intn(20)))
	}
	for g := 0; g < nGroups; g++ {
		var terms []Term
		for k := 0; k < perGroup; k++ {
			terms = append(terms, Term{g*perGroup + k, 1})
		}
		m.AddConstraint(terms, 1)
	}
	// Capacity constraints over random subsets.
	for c := 0; c < 2+r.Intn(3); c++ {
		var terms []Term
		for i := 0; i < nBin; i++ {
			if r.Intn(3) == 0 {
				terms = append(terms, Term{i, float64(1 + r.Intn(3))})
			}
		}
		if len(terms) > 0 {
			m.AddConstraint(terms, float64(1+r.Intn(4)))
		}
	}
	// Force some binaries on: -x_a - x_b <= -1 (at least one of a pair).
	if r.Intn(2) == 0 {
		a, b := r.Intn(nBin), r.Intn(nBin)
		if a != b {
			m.AddConstraint([]Term{{a, -1}, {b, -1}}, -1)
		}
	}
	for p := 0; p < nProd; p++ {
		y := nBin + p
		m.SetObj(y, float64(1+r.Intn(30)))
		a, b := r.Intn(nBin), r.Intn(nBin)
		if a == b {
			continue
		}
		addProduct(m, a, b, y)
	}
	return m
}

func TestSolveMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 120; trial++ {
		m := randomModel(r)
		checkOptimum(t, trial, m, Solve(m, SolveOptions{}), bruteForce(m))
	}
}

func TestSolveRespectsIncumbent(t *testing.T) {
	m := NewModel(2)
	m.SetInteger(0)
	m.SetInteger(1)
	m.SetObj(0, 5)
	m.SetObj(1, 3)
	m.AddConstraint([]Term{{0, -1}, {1, -1}}, -1) // at least one on
	inc := []float64{1, 0}                        // obj 5; optimum is {0,1} obj 3
	res := Solve(m, SolveOptions{Incumbent: inc})
	if res.Status != Optimal || math.Abs(res.Obj-3) > 1e-9 {
		t.Fatalf("res = %+v", res)
	}
	// An infeasible incumbent is ignored, not trusted.
	bad := []float64{0, 0}
	res = Solve(m, SolveOptions{Incumbent: bad})
	if res.Status != Optimal || math.Abs(res.Obj-3) > 1e-9 {
		t.Fatalf("res with bad incumbent = %+v", res)
	}
}

func TestSolveDeadline(t *testing.T) {
	// A large random model under a microscopic context deadline must stop
	// quickly and report TimedOut or Feasible (if the incumbent arrived
	// first).
	r := rand.New(rand.NewSource(7))
	nBin := 60
	m := NewModel(nBin)
	for i := 0; i < nBin; i++ {
		m.SetInteger(i)
		m.SetObj(i, float64(-1-r.Intn(50)))
	}
	for c := 0; c < 40; c++ {
		var terms []Term
		for i := 0; i < nBin; i++ {
			if r.Intn(2) == 0 {
				terms = append(terms, Term{i, float64(1 + r.Intn(5))})
			}
		}
		m.AddConstraint(terms, float64(5+r.Intn(10)))
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res := Solve(m, SolveOptions{Ctx: ctx})
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("deadline ignored: ran %v", el)
	}
	if res.Status == Optimal && res.Nodes < 3 {
		t.Fatalf("suspiciously fast optimal: %+v", res)
	}
	if res.Status == Feasible && !m.Feasible(res.X, 1e-6) {
		t.Fatal("feasible status with infeasible x")
	}
}

func TestAddConstraintMergesDuplicates(t *testing.T) {
	m := NewModel(2)
	m.AddConstraint([]Term{{0, 1}, {0, 2}, {1, 1}}, 2)
	if len(m.cons[0].terms) != 2 {
		t.Fatalf("terms = %v", m.cons[0].terms)
	}
	for _, tm := range m.cons[0].terms {
		if tm.Var == 0 && tm.Coef != 3 {
			t.Errorf("merged coef = %v, want 3", tm.Coef)
		}
	}
}

func TestAddConstraintPanicsOutOfRange(t *testing.T) {
	m := NewModel(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.AddConstraint([]Term{{5, 1}}, 1)
}

func TestFeasibleAndEval(t *testing.T) {
	m := NewModel(2)
	m.SetObj(0, 2)
	m.SetObj(1, -1)
	m.AddConstraint([]Term{{0, 1}, {1, 1}}, 1)
	if !m.Feasible([]float64{0.5, 0.5}, 1e-9) {
		t.Error("boundary point should be feasible")
	}
	if m.Feasible([]float64{1, 1}, 1e-9) {
		t.Error("violating point accepted")
	}
	if m.Feasible([]float64{-0.1, 0}, 1e-9) {
		t.Error("below-bound point accepted")
	}
	if got := m.Eval([]float64{1, 1}); got != 1 {
		t.Errorf("Eval = %v", got)
	}
}

func TestProductLinearization(t *testing.T) {
	// min 10y + (-1)a + (-1)b with y >= a + b - 1: both on costs 10 - 2 = 8,
	// one on costs -1, so optimum is one on.
	m := NewModel(3)
	m.SetInteger(0)
	m.SetInteger(1)
	m.SetObj(0, -1)
	m.SetObj(1, -1)
	m.SetObj(2, 10)
	addProduct(m, 0, 1, 2)
	res := Solve(m, SolveOptions{})
	if res.Status != Optimal || math.Abs(res.Obj-(-1)) > 1e-6 {
		t.Fatalf("res = %+v, want obj -1", res)
	}
	// With a cheap product cost both go on: -1 -1 + 0.5 = -1.5.
	m2 := NewModel(3)
	m2.SetInteger(0)
	m2.SetInteger(1)
	m2.SetObj(0, -1)
	m2.SetObj(1, -1)
	m2.SetObj(2, 0.5)
	addProduct(m2, 0, 1, 2)
	res = Solve(m2, SolveOptions{})
	if res.Status != Optimal || math.Abs(res.Obj-(-1.5)) > 1e-6 {
		t.Fatalf("res = %+v, want obj -1.5", res)
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || TimedOut.String() != "timed-out" {
		t.Error("status strings wrong")
	}
}

// sweepModel draws a random selection model: groups of binary candidates
// (SOS-branched, at least one required), plus random capacity rows — half
// eager, half lazy, so lazy activation happens mid-search. Integer costs
// (every other trial) manufacture degenerate ties between optima. At most
// 18 binaries keep it within reach of bruteForce.
func sweepModel(trial int) *Model {
	rng := rand.New(rand.NewSource(int64(trial)))
	nGroups := 3 + rng.Intn(4)
	per := 2 + rng.Intn(2)
	m := NewModel(nGroups * per)
	groups := make([][]int, nGroups)
	for g := 0; g < nGroups; g++ {
		vars := make([]int, per)
		terms := make([]Term, per)
		for k := 0; k < per; k++ {
			v := g*per + k
			cost := 1 + rng.Float64()*10
			if trial%2 == 0 {
				cost = float64(1 + rng.Intn(6)) // integral: degenerate ties
			}
			m.SetObj(v, cost)
			m.SetInteger(v)
			vars[k] = v
			terms[k] = Term{Var: v, Coef: -1}
		}
		groups[g] = vars
		m.AddSOS(vars)
		m.AddConstraint(terms, -1) // select at least one per group
	}
	for e := 0; e < nGroups*2; e++ {
		terms := make([]Term, 0, nGroups)
		for _, vars := range groups {
			terms = append(terms, Term{Var: vars[rng.Intn(len(vars))], Coef: 1})
		}
		rhs := float64(1 + rng.Intn(2))
		if e%2 == 0 {
			m.AddLazyConstraint(terms, rhs)
		} else {
			m.AddConstraint(terms, rhs)
		}
	}
	return m
}

// sweepModelFloat draws a harder variant: 8 groups of 3, fractional
// capacity coefficients and right-hand sides, no lazy rows. Pivoting on
// these produces genuinely inexact arithmetic (unlike the ±1 models above,
// whose pivots stay on dyadic rationals), with deep search trees.
func sweepModelFloat(trial int) *Model {
	rng := rand.New(rand.NewSource(int64(10_000 + trial)))
	nGroups, per := 8, 3
	m := NewModel(nGroups * per)
	groups := make([][]int, nGroups)
	for g := 0; g < nGroups; g++ {
		vars := make([]int, per)
		terms := make([]Term, per)
		for k := 0; k < per; k++ {
			v := g*per + k
			m.SetObj(v, 1+rng.Float64()*10)
			m.SetInteger(v)
			vars[k] = v
			terms[k] = Term{Var: v, Coef: -1}
		}
		groups[g] = vars
		m.AddSOS(vars)
		m.AddConstraint(terms, -1)
	}
	for e := 0; e < nGroups; e++ {
		terms := make([]Term, 0, nGroups)
		for _, vars := range groups {
			terms = append(terms, Term{Var: vars[rng.Intn(len(vars))], Coef: 1 + rng.Float64()})
		}
		m.AddConstraint(terms, 2+rng.Float64()*2)
	}
	return m
}

// sweepModelExact draws the sign pattern of the exact formulation (3):
// selection binaries costing c - M < 0 on "at most one" rows, positive-cost
// product variables (eager via addProduct, or lazy as the exact solver adds
// them), and eager and lazy capacity rows. Every model also holds one
// negative-cost binary in no row and one that only a lazy row mentions; no
// active row prices either, so each must start at its optimal bound.
func sweepModelExact(trial int) *Model {
	rng := rand.New(rand.NewSource(int64(20_000 + trial)))
	nGroups := 3 + rng.Intn(3)
	per := 2 + rng.Intn(2)
	nx := nGroups * per
	nProd := 1 + rng.Intn(3)
	free, lazyOnly := nx, nx+1
	m := NewModel(nx + 2 + nProd)
	cost := func(lo, hi int) float64 {
		if trial%2 == 0 {
			return float64(lo + rng.Intn(hi-lo+1)) // integral: degenerate ties
		}
		return float64(lo) + rng.Float64()*float64(hi-lo)
	}
	groups := make([][]int, nGroups)
	for g := range groups {
		terms := make([]Term, per)
		for k := range terms {
			v := g*per + k
			m.SetInteger(v)
			m.SetObj(v, cost(1, 10)-20) // c - M with M = 20
			groups[g] = append(groups[g], v)
			terms[k] = Term{Var: v, Coef: 1}
		}
		m.AddSOS(groups[g])
		m.AddConstraint(terms, 1)
	}
	for _, v := range []int{free, lazyOnly} {
		m.SetInteger(v)
		m.SetObj(v, -cost(1, 25))
	}
	pick := func() int {
		g := groups[rng.Intn(nGroups)]
		return g[rng.Intn(len(g))]
	}
	m.AddLazyConstraint([]Term{{Var: pick(), Coef: 1}, {Var: lazyOnly, Coef: 1}}, 1)
	for e := 0; e < nGroups; e++ {
		var terms []Term
		for _, vars := range groups {
			if rng.Intn(3) > 0 {
				terms = append(terms, Term{Var: vars[rng.Intn(len(vars))], Coef: float64(1 + rng.Intn(2))})
			}
		}
		rhs := float64(1 + rng.Intn(2))
		if e%2 == 0 {
			m.AddLazyConstraint(terms, rhs)
		} else {
			m.AddConstraint(terms, rhs)
		}
	}
	for p := 0; p < nProd; p++ {
		y := nx + 2 + p
		m.SetObj(y, cost(1, 15))
		g1 := rng.Intn(nGroups)
		g2 := (g1 + 1 + rng.Intn(nGroups-1)) % nGroups
		a, b := groups[g1][rng.Intn(per)], groups[g2][rng.Intn(per)]
		if p%2 == 0 {
			addProduct(m, a, b, y)
		} else {
			m.AddLazyConstraint([]Term{{Var: a, Coef: 1}, {Var: b, Coef: 1}, {Var: y, Coef: -1}}, 1)
		}
	}
	return m
}

// onePerGroup enumerates every assignment selecting exactly one variable of
// each SOS group and returns the best feasible objective. For models with
// positive costs and nonnegative capacity coefficients that is the true
// optimum: dropping extra selections from a feasible assignment keeps it
// feasible and lowers its cost.
func onePerGroup(m *Model) float64 {
	best := inf
	x := make([]float64, m.NumVars())
	var walk func(g int)
	walk = func(g int) {
		if g == len(m.sos) {
			if m.Feasible(x, 1e-9) {
				best = math.Min(best, m.Eval(x))
			}
			return
		}
		for _, v := range m.sos[g] {
			x[v] = 1
			walk(g + 1)
			x[v] = 0
		}
	}
	walk(0)
	return best
}

// checkOptimum asserts a solve result against an oracle objective: proven
// optimal at the oracle's objective with a feasible solution, or infeasible
// exactly when the oracle found nothing.
func checkOptimum(t *testing.T, trial int, m *Model, res Result, want float64) {
	t.Helper()
	if math.IsInf(want, 1) {
		if res.Status != Infeasible {
			t.Fatalf("trial %d: oracle infeasible but solver says %v (obj %v)", trial, res.Status, res.Obj)
		}
		return
	}
	if res.Status != Optimal {
		t.Fatalf("trial %d: status = %v, want optimal (oracle obj %v)", trial, res.Status, want)
	}
	if math.Abs(res.Obj-want) > 1e-5 {
		t.Fatalf("trial %d: obj = %v, want %v (x=%v)", trial, res.Obj, want, res.X)
	}
	if !m.Feasible(res.X, 1e-5) {
		t.Fatalf("trial %d: solver returned infeasible x", trial)
	}
}

// TestSweepMatchesBruteForce checks SOS branching with lazy-row activation
// against exhaustive enumeration on 300 random selection models of each
// family: positive costs on "at least one" rows, and the exact
// formulation's negative selection costs, which exercise the simplex start.
func TestSweepMatchesBruteForce(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		for _, m := range []*Model{sweepModel(trial), sweepModelExact(trial)} {
			checkOptimum(t, trial, m, Solve(m, SolveOptions{}), bruteForce(m))
		}
	}
}

// TestSweepFloatCapsMatchesEnumeration checks the fractional-coefficient
// models, whose deep trees and inexact pivots stress the simplex, against
// the one-per-group enumeration.
func TestSweepFloatCapsMatchesEnumeration(t *testing.T) {
	trials := 100
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		m := sweepModelFloat(trial)
		checkOptimum(t, trial, m, Solve(m, SolveOptions{}), onePerGroup(m))
	}
}

// TestCancellationMidSolve cancels solves at staggered points: every run
// must come back without panicking, and the pooled scratch must come out
// clean — a fresh solve afterwards still matches a plain Solve exactly.
func TestCancellationMidSolve(t *testing.T) {
	m := sweepModel(101)
	ref := Solve(m, SolveOptions{})
	for trial := 0; trial < 25; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func(d time.Duration) {
			time.Sleep(d)
			cancel()
		}(time.Duration(trial%5) * 100 * time.Microsecond)
		// Any terminal status is legitimate — a cancel landing inside the
		// root relaxation surfaces as an infeasible root.
		_ = Solve(m, SolveOptions{Ctx: ctx})
		cancel()
		clean := Solve(m, SolveOptions{})
		clean.Runtime = ref.Runtime
		if !reflect.DeepEqual(clean, ref) {
			t.Fatalf("trial %d: solve after cancellation %+v, want %+v", trial, clean, ref)
		}
	}
}
