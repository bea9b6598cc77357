package streak

// Micro-benchmarks for the hot-kernel data-layout work: the bitset capacity
// intersection against the legacy per-edge walk, the SoA tree build/expand
// path, and the B&B simplex node cost. All report allocations —
// the pooled-scratch design targets allocs/op as hard as ns/op. CI runs
// each once as a smoke test; no gate compares their numbers.

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/ilp"
	"repro/internal/pd"
	"repro/internal/topo"
)

// BenchmarkCapacityIntersect measures one full candidate-feasibility sweep
// (every candidate of every object) against a partially-committed tracker:
// the word-AND bitset kernel versus the legacy segment-at-a-time walk it
// replaced.
func BenchmarkCapacityIntersect(b *testing.B) {
	p := benchProblem(b, 7)
	res := pd.Solve(p) // realistic mid-solve occupancy
	u := p.Usage(res.Assignment)

	walk := func(i, j int, u *grid.Usage) bool {
		for _, e := range p.Cands[i][j].Edges {
			if u.Avail(int(e.Layer), int(e.Idx)) < int(e.N) {
				return false
			}
		}
		return true
	}

	var fits int
	b.Run("bitset", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			fits = 0
			for i := range p.Cands {
				for j := range p.Cands[i] {
					if p.CandidateFits(i, j, u) {
						fits++
					}
				}
			}
		}
	})
	want := fits
	b.Run("walk", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			fits = 0
			for i := range p.Cands {
				for j := range p.Cands[i] {
					if walk(i, j, u) {
						fits++
					}
				}
			}
		}
	})
	if want != fits {
		b.Fatalf("bitset and walk disagree: %d vs %d", want, fits)
	}
}

// BenchmarkTreeArena measures the candidate-generation hot path on an
// Industry preset: per-object 2-D topology generation plus 3-D layer
// expansion, the loop the SoA segment arenas and pooled expansion scratch
// were built for.
func BenchmarkTreeArena(b *testing.B) {
	p := benchProblem(b, 7)
	b.ResetTimer()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		for i := range p.Objects {
			obj := &p.Objects[i]
			g := p.Group(i)
			ots := topo.ObjectTopologies(g, obj, p.Opt.Topo)
			cands := topo.Expand3D(p.Grid, ots, p.Opt.Topo, p.Opt.MaxCandidates)
			if len(cands) == 0 {
				b.Fatal("no candidates expanded")
			}
		}
	}
}

// bbNodeModel builds a randomized selection model shaped like a tile ILP:
// SOS candidate groups, covering rows, and fractional-coefficient capacity
// rows. The tight capacity rows force deep branch-and-bound trees, so the
// per-node LP re-solve dominates the cost.
func bbNodeModel(seed int64) *ilp.Model {
	rng := rand.New(rand.NewSource(seed))
	nGroups, per := 8, 3
	m := ilp.NewModel(nGroups * per)
	groups := make([][]int, nGroups)
	for g := 0; g < nGroups; g++ {
		vars := make([]int, per)
		terms := make([]ilp.Term, per)
		for k := 0; k < per; k++ {
			v := g*per + k
			m.SetObj(v, 1+rng.Float64()*10)
			m.SetInteger(v)
			vars[k] = v
			terms[k] = ilp.Term{Var: v, Coef: -1}
		}
		groups[g] = vars
		m.AddSOS(vars)
		m.AddConstraint(terms, -1)
	}
	for e := 0; e < nGroups; e++ {
		terms := make([]ilp.Term, 0, nGroups)
		for _, vars := range groups {
			terms = append(terms, ilp.Term{Var: vars[rng.Intn(len(vars))], Coef: 1 + rng.Float64()})
		}
		m.AddConstraint(terms, 2+rng.Float64()*2)
	}
	return m
}

// BenchmarkBBNode measures branch-and-bound node cost: a fixed set of
// feasible selection models solved to optimality, reporting ns per
// explored node alongside the standard metrics.
func BenchmarkBBNode(b *testing.B) {
	var models []*ilp.Model
	for seed := int64(40); len(models) < 8 && seed < 140; seed++ {
		m := bbNodeModel(seed)
		if ilp.Solve(m, ilp.SolveOptions{}).Status == ilp.Optimal {
			models = append(models, m)
		}
	}
	if len(models) < 8 {
		b.Fatal("not enough feasible models")
	}
	b.ReportAllocs()
	b.ResetTimer()
	nodes := 0
	for n := 0; n < b.N; n++ {
		for _, m := range models {
			r := ilp.Solve(m, ilp.SolveOptions{})
			if r.Status != ilp.Optimal {
				b.Fatalf("status %v", r.Status)
			}
			nodes += r.Nodes
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
}
