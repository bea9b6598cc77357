// Package ilp is a self-contained 0/1 integer linear programming solver:
// a bounded-variable primal simplex for the LP relaxation plus branch and
// bound with a wall-clock time limit. It substitutes for the commercial
// GUROBI solver the paper uses for formulation (3); the paper's headline
// ILP behaviour — optimal quality, prohibitive runtime on congested
// instances, 3600 s timeout — is reproduced faithfully by an exact solver
// with a configurable limit.
//
// The solver handles minimization of c'x subject to linear <= constraints
// with every variable bounded to [0, 1]. Variables marked integer are
// branched to {0, 1}; continuous variables (used for linearized quadratic
// product terms) stay fractional.
package ilp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Term is one coefficient of a linear constraint.
type Term struct {
	// Var is the variable index.
	Var int
	// Coef is the coefficient.
	Coef float64
}

// constraint is sum(Coef * x[Var]) <= RHS.
type constraint struct {
	terms []Term
	rhs   float64
}

// Model is a 0/1 ILP: minimize Obj'x subject to the added <= constraints,
// 0 <= x <= 1 for every variable, and x integer where flagged.
type Model struct {
	obj     []float64
	integer []bool
	cons    []constraint
	lazy    []constraint
	sos     [][]int
}

// NewModel creates a model with n variables, all continuous with zero
// objective coefficient.
func NewModel(n int) *Model {
	return &Model{obj: make([]float64, n), integer: make([]bool, n)}
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.obj) }

// NumConstraints returns the number of constraints.
func (m *Model) NumConstraints() int { return len(m.cons) }

// SetObj sets the objective coefficient of variable v.
func (m *Model) SetObj(v int, c float64) { m.obj[v] = c }

// Obj returns the objective coefficient of variable v.
func (m *Model) Obj(v int) float64 { return m.obj[v] }

// SetInteger marks variable v as binary (branched to {0,1}).
func (m *Model) SetInteger(v int) { m.integer[v] = true }

// AddSOS declares a selection group: at most one of the listed binary
// variables may be 1 (the caller must also add the matching sum <= 1
// constraint). Branch and bound branches on whole groups — one child per
// candidate plus a none-selected child — which suits one-candidate-per-
// object selection problems far better than single-variable branching.
func (m *Model) AddSOS(vars []int) {
	for _, v := range vars {
		if v < 0 || v >= len(m.obj) {
			panic(fmt.Sprintf("ilp: SOS variable %d out of range", v))
		}
	}
	m.sos = append(m.sos, append([]int(nil), vars...))
}

// AddConstraint appends the constraint sum(terms) <= rhs. The row keeps its
// terms in ascending variable order: duplicate variables within one
// constraint are summed and zero sums dropped. It panics on out-of-range
// variable indices — always a caller bug.
func (m *Model) AddConstraint(terms []Term, rhs float64) {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(m.obj) {
			panic(fmt.Sprintf("ilp: variable %d out of range", t.Var))
		}
	}
	out := slices.Clone(terms)
	slices.SortStableFunc(out, func(a, b Term) int { return cmp.Compare(a.Var, b.Var) })
	k := 0
	for _, t := range out {
		if k > 0 && out[k-1].Var == t.Var {
			out[k-1].Coef += t.Coef
			continue
		}
		out[k] = t
		k++
	}
	out = slices.DeleteFunc(out[:k], func(t Term) bool { return t.Coef == 0 })
	m.cons = append(m.cons, constraint{terms: out, rhs: rhs})
}

// AddLazyConstraint appends a constraint that branch and bound activates
// only once a relaxation solution violates it. Selection problems have
// thousands of capacity/product rows of which only a handful ever bind;
// keeping the rest out of the tableau is what makes the dense simplex
// viable at benchmark scale.
func (m *Model) AddLazyConstraint(terms []Term, rhs float64) {
	m.AddConstraint(terms, rhs)
	last := m.cons[len(m.cons)-1]
	m.cons = m.cons[:len(m.cons)-1]
	m.lazy = append(m.lazy, last)
}

// NumLazyConstraints returns the number of lazily-activated constraints.
func (m *Model) NumLazyConstraints() int { return len(m.lazy) }

// violatedLazy returns the indices of inactive lazy rows violated by x.
func (m *Model) violatedLazy(x []float64, active []bool) []int {
	var out []int
	for li, con := range m.lazy {
		if active[li] {
			continue
		}
		lhs := 0.0
		for _, t := range con.terms {
			lhs += t.Coef * x[t.Var]
		}
		if lhs > con.rhs+1e-7 {
			out = append(out, li)
		}
	}
	return out
}

// Eval returns the objective value of an assignment.
func (m *Model) Eval(x []float64) float64 {
	v := 0.0
	for i, c := range m.obj {
		v += c * x[i]
	}
	return v
}

// Feasible reports whether x satisfies every constraint (lazy included)
// and bound within tolerance tol.
func (m *Model) Feasible(x []float64, tol float64) bool {
	for i := range x {
		if x[i] < -tol || x[i] > 1+tol {
			return false
		}
	}
	for _, group := range [][]constraint{m.cons, m.lazy} {
		for _, con := range group {
			lhs := 0.0
			for _, t := range con.terms {
				lhs += t.Coef * x[t.Var]
			}
			if lhs > con.rhs+tol {
				return false
			}
		}
	}
	return true
}

const (
	// tol is the general numeric tolerance.
	tol = 1e-7
	// intTol is the integrality tolerance.
	intTol = 1e-6
)

// inf is the internal representation of an unbounded value.
var inf = math.Inf(1)
