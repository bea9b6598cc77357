package streak

// Golden-fingerprint equivalence suite for the hot-kernel data-layout work:
// every solver's full outcome (objective bits, routed canonical geometry,
// audit outcome) and the built problem's complete candidate set are hashed
// into fingerprints pinned against goldens captured on the pre-refactor
// code. Any representation change (SoA candidate edge lists, bitset
// capacity kernels, pooled scratch, warm-started B&B simplex) that alters a
// single routed segment, layer choice, cost bit, or audit verdict fails
// these tests. The "-search" keys pin the shape of the exact and hier
// branch-and-bound searches (nodes, LP solves, simplex iterations), so a
// simplex kernel change that alters a single pivot decision fails too. The
// "/post" keys pin what clustering and refinement make of the primal-dual
// selection: the post-optimized geometry, Vio(dst) before and after, the
// refinement stats, WL and Avg(Reg). At equivScale primal-dual routes every
// bit, so those keys never cluster; the "/cluster" keys pin clustering
// (Algorithm 3) itself on designs that leave bits to it: its stats and the
// complete routing it leaves, pin maps included.
//
// Regenerate (prints the golden map literal; only do this to extend
// coverage or to re-capture a search whose path a solver change moves on
// purpose, never to paper over a diff):
//
//	STREAK_WRITE_GOLDEN=1 go test -run TestGoldenFingerprints -v .
//
// Preset coverage is bounded by determinism: hier Industry5 hits a per-tile
// wall-clock timeout at this scale and exact is only run where it proves
// optimality in seconds, so those combinations are excluded by design.

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"

	"repro/internal/audit"
	"repro/internal/benchgen"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/hier"
	"repro/internal/obs"
	"repro/internal/pd"
	"repro/internal/postopt"
	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/signal"
	"repro/internal/topo"
)

// equivScale matches benchScale so golden problems and bench problems are
// the same designs.
const equivScale = benchScale

// goldenFingerprints pins the seed (pre-refactor) outcomes. Keys are
// "<preset>/<flow>"; values come from STREAK_WRITE_GOLDEN output. The
// "/post" values were captured on the map-based tree path lengths, before
// the pooled tree view replaced them. The exact and hier keys of Industry1
// and Industry3, Industry7's hier keys and every "-search" key were
// re-captured when the simplex stopped starting negative-cost columns at
// their upper bounds: the searches changed path, every exact objective
// stayed equal and every changed hier objective fell to the exact optimum.
// The "/cluster" keys were captured while clustering still re-derived both
// trees of every pair it priced.
var goldenFingerprints = map[string]string{
	"Industry1/exact":        "obj=40aafa0000000000 geo=5a58fea675bfd2cd audit=ok",
	"Industry1/exact-search": "nodes=1 lps=1 iters=34",
	"Industry1/hier":         "obj=40aafa0000000000 geo=5a58fea675bfd2cd audit=ok",
	"Industry1/hier-search":  "nodes=4 lps=4 iters=34",
	"Industry1/pd":           "obj=40aafa0000000000 geo=5a58fea675bfd2cd audit=ok",
	"Industry1/post":         "geo=5a58fea675bfd2cd vio=0 refine=0/0/0/0/0 viodst=0 wl=40d0874000000000 reg=3ff0000000000000",
	"Industry1/problem":      "objs=17 cands=204 hash=c861cc3cc586596c",
	"Industry2+eco/cluster":  "stats=27/0/2 geo=f1ac2d4d2723faa9",
	"Industry3/exact":        "obj=40ae7e0000000000 geo=ae79d7033fb42a10 audit=ok",
	"Industry3/exact-search": "nodes=14 lps=62 iters=2541",
	"Industry3/hier":         "obj=40ae7e0000000000 geo=ae79d7033fb42a10 audit=ok",
	"Industry3/hier-search":  "nodes=17 lps=65 iters=1443",
	"Industry3/pd":           "obj=40ae7e0000000000 geo=838f4f2e86584878 audit=ok",
	"Industry3/post":         "geo=838f4f2e86584878 vio=0 refine=0/0/0/0/0 viodst=0 wl=40d28f4000000000 reg=3ff0000000000000",
	"Industry3/problem":      "objs=20 cands=240 hash=eeff75d37d32d31d",
	"Industry5/pd":           "obj=40d22a36db6db6db geo=730b109c398530fa audit=ok",
	"Industry5/post":         "geo=730b109c398530fa vio=0 refine=0/0/0/0/0 viodst=0 wl=40f5577000000000 reg=3fec226d6d8b43fb",
	"Industry5/problem":      "objs=61 cands=732 hash=977c4f614345df7e",
	"Industry5@0.2/cluster":  "stats=120/0/6 geo=7b3c170c64018077",
	"Industry6@0.2/cluster":  "stats=92/0/6 geo=8be8410efe2b2267",
	"Industry7/hier":         "obj=40b6aa0000000000 geo=871cb205034c89f9 audit=ok",
	"Industry7/hier-search":  "nodes=17 lps=82 iters=905",
	"Industry7/pd":           "obj=40b6aa0000000000 geo=cf161fbcdf049ddf audit=ok",
	"Industry7/post":         "geo=076d20edda26fa8b vio=1 refine=1/0/1/0/2 viodst=0 wl=40da25c000000000 reg=3fea740da740da75",
	"Industry7/problem":      "objs=15 cands=180 hash=440e06d4ce441187",
}

// candUsageTriples returns a candidate's per-edge usage as sorted
// (layer, idx, need) triples, independent of the underlying representation.
// This is the single place the suite touches candidate edge storage; when
// the storage changes, this helper follows and the goldens must not.
func candUsageTriples(c *topo.Candidate) [][3]int {
	tr := make([][3]int, 0, len(c.Edges))
	for _, e := range c.Edges {
		tr = append(tr, [3]int{int(e.Layer), int(e.Idx), int(e.N)})
	}
	sort.Slice(tr, func(a, b int) bool {
		if tr[a][0] != tr[b][0] {
			return tr[a][0] < tr[b][0]
		}
		return tr[a][1] < tr[b][1]
	})
	return tr
}

// fpProblem digests the complete candidate set: per object the candidate
// count, per candidate topology index, layers, wirelength, vias, cost bits
// and the full sorted edge-usage list.
func fpProblem(p *route.Problem) string {
	h := fnv.New64a()
	nc := 0
	for i := range p.Cands {
		fmt.Fprintf(h, "o%d:%d;", i, len(p.Cands[i]))
		for j := range p.Cands[i] {
			c := &p.Cands[i][j]
			nc++
			fmt.Fprintf(h, "c%d,%d,%d,%d,%d,%d;", c.TopoIdx, c.HLayer, c.VLayer, c.WL, c.Vias, c.Cost)
			for _, t := range candUsageTriples(c) {
				fmt.Fprintf(h, "e%d.%d.%d;", t[0], t[1], t[2])
			}
		}
	}
	return fmt.Sprintf("objs=%d cands=%d hash=%016x", len(p.Objects), nc, h.Sum64())
}

// fpSolve digests one solve outcome: objective bits, routed canonical
// geometry (layers + canonical segments per bit, plus solution objects) and
// the independent audit verdict.
func fpSolve(p *route.Problem, obj float64, a route.Assignment) string {
	h := fnv.New64a()
	r := p.ExtractRouting(a)
	hashRouting(h, r)
	rep := audit.Check(p.Design, p.Grid, r)
	verdict := "ok"
	if !rep.OK() {
		verdict = fmt.Sprintf("%d", len(rep.Violations))
	}
	return fmt.Sprintf("obj=%016x geo=%016x audit=%s", math.Float64bits(obj), h.Sum64(), verdict)
}

// hashRouting writes a routing's layers and canonical segments per bit,
// plus its solution objects, to h.
func hashRouting(h io.Writer, r *route.Routing) {
	for gi := range r.Bits {
		for bi := range r.Bits[gi] {
			b := r.Bits[gi][bi]
			if !b.Routed {
				fmt.Fprintf(h, "u;")
				continue
			}
			fmt.Fprintf(h, "b%d,%d:", b.HLayer, b.VLayer)
			for _, s := range b.Tree.Canon().Segs {
				fmt.Fprintf(h, "%d.%d.%d.%d;", s.A.X, s.A.Y, s.B.X, s.B.Y)
			}
		}
		for _, so := range r.Objects[gi] {
			fmt.Fprintf(h, "s%d,%d,%d,%v;", so.RepBit, so.HLayer, so.VLayer, so.BitIdx)
		}
	}
}

// fpPost digests a primal-dual run with clustering and refinement: the
// post-optimized geometry, Vio(dst) before refinement, the refinement stats,
// and the final Vio(dst), WL and Avg(Reg).
func fpPost(res *core.Result) string {
	h := fnv.New64a()
	hashRouting(h, res.Routing)
	rs := res.Refine
	return fmt.Sprintf("geo=%016x vio=%d refine=%d/%d/%d/%d/%d viodst=%d wl=%016x reg=%016x",
		h.Sum64(), res.VioBefore, rs.GroupsBefore, rs.GroupsAfter, rs.PinsFixed, rs.PinsLeft, rs.AddedWL,
		res.Metrics.VioDst, math.Float64bits(res.Metrics.WL), math.Float64bits(res.Metrics.AvgReg))
}

// fpCluster digests one clustering pass on top of a primal-dual routing:
// its stats, every bit's routed flag, layers and canonical tree, and every
// solution object's representative tree, bit, members, layers and pin maps.
func fpCluster(st postopt.ClusterStats, r *route.Routing) string {
	h := fnv.New64a()
	hashRouting(h, r)
	for gi := range r.Objects {
		for _, so := range r.Objects[gi] {
			for _, s := range so.RepTree.Canon().Segs {
				fmt.Fprintf(h, "%d.%d.%d.%d;", s.A.X, s.A.Y, s.B.X, s.B.Y)
			}
			fmt.Fprintf(h, "m%v;", so.PinMap)
		}
	}
	return fmt.Sprintf("stats=%d/%d/%d geo=%016x", st.BitsRouted, st.BitsLeft, st.Clusters, h.Sum64())
}

// clusterDesigns lists designs whose primal-dual routing leaves bits to
// clustering: two presets at scale 0.2, and one seeded ECO edit of
// Industry2 at equivScale.
var clusterDesigns = []struct {
	name   string
	design func() *signal.Design
}{
	{"Industry5@0.2", func() *signal.Design { return benchgen.Scale(benchgen.Industry(5), 0.2).Generate() }},
	{"Industry6@0.2", func() *signal.Design { return benchgen.Scale(benchgen.Industry(6), 0.2).Generate() }},
	{"Industry2+eco", func() *signal.Design {
		d := benchgen.Scale(benchgen.Industry(2), equivScale).Generate()
		nd, _ := scenario.Mutate(rand.New(rand.NewSource(25)), d)
		return nd
	}},
}

// fpSearch digests the branch-and-bound search shape a solve left on its
// recorder: nodes explored, LP relaxations solved and simplex iterations.
func fpSearch(rec *obs.Recorder) string {
	return fmt.Sprintf("nodes=%d lps=%d iters=%d",
		rec.Counter(obs.CounterILPBBNodes), rec.Counter(obs.CounterILPLPCold),
		rec.Counter(obs.CounterILPSimplexIters))
}

// equivPresets lists the Industry presets with the flows that are
// deterministic at equivScale (see the package comment for exclusions).
var equivPresets = []struct {
	n           int
	hier, exact bool
}{
	{n: 1, hier: true, exact: true},
	{n: 3, hier: true, exact: true},
	{n: 5},
	{n: 7, hier: true},
}

// computeFingerprints runs every deterministic preset/flow combination and
// returns its fingerprint map. workers sets route.Options.Workers for the
// problem build (candidate sets are bit-identical across worker counts).
func computeFingerprints(t *testing.T, workers int) map[string]string {
	t.Helper()
	got := make(map[string]string)
	for _, pr := range equivPresets {
		name := fmt.Sprintf("Industry%d", pr.n)
		d := benchgen.Scale(benchgen.Industry(pr.n), equivScale).Generate()
		p, err := route.Build(d, route.Options{Workers: workers})
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		got[name+"/problem"] = fpProblem(p)

		res := pd.Solve(p)
		got[name+"/pd"] = fpSolve(p, res.Objective, res.Assignment)

		if pr.hier {
			rec := obs.NewRecorder()
			hs, err := hier.SolveCtx(obs.WithRecorder(context.Background(), rec), p, hier.Options{Tiles: 2})
			if err != nil {
				t.Fatalf("%s: hier: %v", name, err)
			}
			if hs.TilesTimedOut > 0 {
				t.Fatalf("%s: hier tile timed out; preset is not golden-safe", name)
			}
			got[name+"/hier"] = fpSolve(p, hs.Objective, hs.Assignment)
			got[name+"/hier-search"] = fpSearch(rec)
		}
		if pr.exact {
			rec := obs.NewRecorder()
			es, err := exact.SolveCtx(obs.WithRecorder(context.Background(), rec), p, exact.Options{})
			if err != nil {
				t.Fatalf("%s: exact: %v", name, err)
			}
			if es.TimedOut {
				t.Fatalf("%s: exact timed out; preset is not golden-safe", name)
			}
			got[name+"/exact"] = fpSolve(p, es.Objective, es.Assignment)
			got[name+"/exact-search"] = fpSearch(rec)
		}
		post, err := core.RunProblemCtx(context.Background(), p, core.Options{
			Method: core.PrimalDual, PostOpt: true, Clustering: true, Refinement: true,
		})
		if err != nil {
			t.Fatalf("%s: post: %v", name, err)
		}
		got[name+"/post"] = fpPost(post)
	}
	for _, cd := range clusterDesigns {
		p, err := route.Build(cd.design(), route.Options{Workers: workers})
		if err != nil {
			t.Fatalf("%s: build: %v", cd.name, err)
		}
		r := p.ExtractRouting(pd.Solve(p).Assignment)
		st, err := postopt.ClusterAndRouteCtx(context.Background(), p, r, r.UsageOf(p.Grid), postopt.Options{})
		if err != nil {
			t.Fatalf("%s: cluster: %v", cd.name, err)
		}
		got[cd.name+"/cluster"] = fpCluster(st, r)
	}
	return got
}

// TestGoldenFingerprints pins every deterministic solver outcome against
// the pre-refactor goldens (sequential build).
func TestGoldenFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second exact solves")
	}
	got := computeFingerprints(t, 1)
	if os.Getenv("STREAK_WRITE_GOLDEN") != "" {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("\t%q: %q,\n", k, got[k])
		}
		return
	}
	for k, want := range goldenFingerprints {
		if got[k] != want {
			t.Errorf("%s:\n got %s\nwant %s", k, got[k], want)
		}
	}
	for k := range got {
		if _, ok := goldenFingerprints[k]; !ok {
			t.Errorf("%s: computed but not pinned; regenerate goldens", k)
		}
	}
}

// TestGoldenFingerprintsParallelBuild proves the parallel problem build and
// the solves on top of it reproduce the sequential goldens bit-for-bit.
func TestGoldenFingerprintsParallelBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second exact solves")
	}
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 4
	}
	got := computeFingerprints(t, w)
	for k, want := range goldenFingerprints {
		if got[k] != want {
			t.Errorf("%s (workers=%d):\n got %s\nwant %s", k, w, got[k], want)
		}
	}
}
