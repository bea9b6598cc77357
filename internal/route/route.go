// Package route turns a design into Streak's candidate-selection problem
// (formulation (3) in the paper): it partitions groups into objects,
// generates 3-D candidates for every object, prices candidates (c(i,j))
// and pairwise irregularity (c(i,j,p,q)), and provides assignment legality
// and cost evaluation shared by the ILP and primal-dual solvers.
package route

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/signal"
	"repro/internal/topo"
)

// Options tunes problem construction.
type Options struct {
	// Topo tunes backbone and candidate generation.
	Topo topo.Options
	// M is the non-routing penalty of formulation (3a). Default 1e6.
	M float64
	// RegWeight scales the 1/ratio irregularity cost. Default 20.
	RegWeight float64
	// NoShare is the penalty for topology pairs sharing no RC; it must
	// stay below M so routability keeps first priority. Default 2000.
	NoShare float64
	// LayerPenalty is charged per layer of distance between the shared
	// trunks of two candidates. Default 4.
	LayerPenalty float64
	// MaxCandidates caps the 3-D candidates kept per object. Default 12.
	MaxCandidates int
	// PairNeighbors bounds, per object, how many same-group neighbor
	// objects contribute pair terms (objects are neighbored in index
	// order). Negative means all pairs. Large multipin groups otherwise
	// explode quadratically. Default 4.
	PairNeighbors int
	// Workers sizes the worker pool used for candidate generation and the
	// pair-cost kernel fill. Zero (or negative) means
	// runtime.GOMAXPROCS(0); 1 forces a sequential build. Results are
	// bit-identical for every worker count.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.M == 0 {
		o.M = 1e6
	}
	if o.RegWeight == 0 {
		o.RegWeight = 20
	}
	if o.NoShare == 0 {
		o.NoShare = 2000
	}
	if o.LayerPenalty == 0 {
		o.LayerPenalty = 4
	}
	if o.MaxCandidates == 0 {
		o.MaxCandidates = 12
	}
	if o.PairNeighbors == 0 {
		o.PairNeighbors = 4
	}
	return o
}

// Problem is the built selection problem.
type Problem struct {
	// Design is the input design.
	Design *signal.Design
	// Grid is the routing grid with blockages applied.
	Grid *grid.Grid
	// Objects lists every routing object across all groups.
	Objects []ident.Object
	// Cands[i] are the 3-D candidates of object i, sorted by cost.
	Cands [][]topo.Candidate
	// GroupObjs[g] lists the object indices belonging to group g.
	GroupObjs [][]int
	// Opt holds the options the problem was built with.
	Opt Options

	// kern is the precomputed pair-cost kernel (see kernel.go).
	kern kernel

	// usagePool hands out pooled Usage trackers for Grid (see UsagePool).
	usagePool *grid.UsagePool
	poolOnce  sync.Once
}

// UsagePool returns the problem's shared pool of Usage trackers for Grid.
// Solvers draw per-solve scratch from it so steady-state serving (streakd
// answering request after request on one problem) reuses the per-layer edge
// arrays instead of reallocating them every solve. Safe for concurrent use.
func (p *Problem) UsagePool() *grid.UsagePool {
	p.poolOnce.Do(func() { p.usagePool = grid.NewUsagePool(p.Grid) })
	return p.usagePool
}

// NewGrid materializes the design's grid spec, applying blockages.
func NewGrid(d *signal.Design) *grid.Grid {
	g := grid.New(d.Grid.W, d.Grid.H, grid.DefaultLayers(d.Grid.NumLayers, d.Grid.EdgeCap))
	for _, b := range d.Grid.Blockages {
		g.SetRegionCap(b.Layer, b.Rect, b.Cap)
	}
	return g
}

// Build constructs the selection problem for a design.
func Build(d *signal.Design, opt Options) (*Problem, error) {
	return BuildCtx(context.Background(), d, opt)
}

// BuildCtx is Build honoring the context. Construction runs in three
// stages: a sequential identification pass, a parallel per-object
// candidate-generation fan-out (topology generation plus 3-D expansion,
// partitioned across Options.Workers goroutines and stitched back by
// object index, so the result is bit-identical to a sequential build), and
// a parallel pair-cost kernel fill. Cancellation stops the fan-out between
// objects and returns ctx's error.
func BuildCtx(ctx context.Context, d *signal.Design, opt Options) (*Problem, error) {
	p, _, err := build(ctx, d, opt.withDefaults(), nil, nil)
	return p, err
}

// build is BuildCtx and RebuildCtx. Without a base problem it partitions
// every group; with one, each group whose changed entry is false keeps the
// base's objects and candidate slices, and only the other groups are
// partitioned. The partitioned objects go through the candidate fan-out;
// the pair-cost kernel covers the whole problem. It returns how many
// objects it generated candidates for. opt must already carry defaults.
func build(ctx context.Context, d *signal.Design, opt Options, base *Problem, changed []bool) (*Problem, int, error) {
	if err := d.Validate(); err != nil {
		return nil, 0, err
	}
	if err := faultinject.Fire(ctx, faultinject.RouteBuild); err != nil {
		return nil, 0, fmt.Errorf("route: %w", err)
	}
	p := &Problem{
		Design:    d,
		Grid:      NewGrid(d),
		Opt:       opt,
		GroupObjs: make([][]int, len(d.Groups)),
	}
	var regen []int // objects that need candidates
	for gi := range d.Groups {
		if base != nil && !changed[gi] {
			for _, oi := range base.GroupObjs[gi] {
				p.GroupObjs[gi] = append(p.GroupObjs[gi], len(p.Objects))
				p.Objects = append(p.Objects, base.Objects[oi])
				p.Cands = append(p.Cands, base.Cands[oi])
			}
			continue
		}
		for _, o := range ident.Partition(gi, &d.Groups[gi]) {
			regen = append(regen, len(p.Objects))
			p.GroupObjs[gi] = append(p.GroupObjs[gi], len(p.Objects))
			p.Objects = append(p.Objects, o)
			p.Cands = append(p.Cands, nil)
		}
	}
	workers := opt.WorkerCount()
	rec := obs.FromContext(ctx)
	var arenaGets0, arenaFresh0 int64
	if rec != nil {
		arenaGets0, arenaFresh0 = geom.ArenaCounters()
	}
	err := obs.Do(ctx, obs.StageBuild, workers, func(ctx context.Context) error {
		return parallelFor(ctx, workers, len(regen), func(i int) {
			obj := &p.Objects[regen[i]]
			topos := topo.ObjectTopologies(&d.Groups[obj.GroupIdx], obj, opt.Topo)
			p.Cands[regen[i]] = topo.Expand3D(p.Grid, topos, opt.Topo, opt.MaxCandidates)
		})
	})
	if err != nil {
		return nil, 0, fmt.Errorf("route: %w", err)
	}
	if rec != nil {
		total := 0
		for i := range p.Cands {
			total += len(p.Cands[i])
		}
		rec.Add(obs.CounterBuildObjects, int64(len(p.Objects)))
		rec.Add(obs.CounterBuildCandidates, int64(total))
		// Pooled-vs-fresh geometry-arena split for this build. The global
		// counters are shared across concurrent builds, so the deltas are
		// attributions, not exact per-build counts; in the common one-build-
		// per-recorder case they are exact.
		gets1, fresh1 := geom.ArenaCounters()
		rec.Add(obs.CounterBuildArenaPoolGets, gets1-arenaGets0)
		rec.Add(obs.CounterBuildArenaPoolFresh, fresh1-arenaFresh0)
	}
	if err := obs.Do(ctx, obs.StageKernel, workers, func(ctx context.Context) error {
		return p.buildKernel(ctx, workers)
	}); err != nil {
		return nil, 0, fmt.Errorf("route: %w", err)
	}
	return p, len(regen), nil
}

// Group returns the signal group owning object i.
func (p *Problem) Group(i int) *signal.Group {
	return &p.Design.Groups[p.Objects[i].GroupIdx]
}

// RepBit returns the representative bit of object i.
func (p *Problem) RepBit(i int) *signal.Bit {
	return p.Objects[i].RepBit(p.Group(i))
}

// Cost returns c(i,j): the wirelength-plus-via cost of candidate j of
// object i.
func (p *Problem) Cost(i, j int) float64 {
	return float64(p.Cands[i][j].Cost)
}

// Partners returns the same-group objects that contribute pair terms with
// object i, respecting the PairNeighbors bound, in ascending order. The
// list is computed once at build and shared: callers must treat it as
// read-only.
func (p *Problem) Partners(i int) []int { return p.kern.partners[i] }

// partnersOf computes Partners(i): the objects of i's group within
// PairNeighbors positions of it in the group's object list (all of them
// when PairNeighbors is negative).
func (p *Problem) partnersOf(i int) []int {
	objs := p.GroupObjs[p.Objects[i].GroupIdx]
	pos := slices.Index(objs, i)
	lo, hi := 0, len(objs)
	if n := p.Opt.PairNeighbors; n > 0 {
		lo, hi = max(pos-n, 0), min(pos+n+1, len(objs))
	}
	if hi-lo <= 1 {
		return nil
	}
	out := make([]int, 0, hi-lo-1)
	out = append(out, objs[lo:pos]...)
	return append(out, objs[pos+1:hi]...)
}

// PairCost returns c(i,j,p,q) of formulation (3a): the irregularity cost of
// simultaneously selecting candidate j of object i and candidate r of
// object q. Objects in different groups never pay pair costs. The
// regularity ratio behind the cost comes from the precomputed pair-cost
// kernel (a search of i's stored partner list, at most 2·PairNeighbors
// long, then one table load; see kernel.go), so the method is safe to call
// from concurrent solver legs.
func (p *Problem) PairCost(i, j, q, r int) float64 {
	if p.Objects[i].GroupIdx != p.Objects[q].GroupIdx || i == q {
		return 0
	}
	ratio := p.pairRatio(i, p.Cands[i][j].TopoIdx, q, p.Cands[q][r].TopoIdx)
	ld := layerDist(&p.Cands[i][j], &p.Cands[q][r])
	return topo.PairIrregularity(ratio, p.Opt.RegWeight, p.Opt.NoShare, ld, p.Opt.LayerPenalty)
}

// layerDist measures how far apart the trunks of two candidates sit in the
// metal stack.
func layerDist(a, b *topo.Candidate) int {
	return iabs(a.HLayer-b.HLayer) + iabs(a.VLayer-b.VLayer)
}

// Assignment selects one candidate per object (or -1 for unrouted).
type Assignment struct {
	// Choice[i] is the selected candidate index of object i, or -1.
	Choice []int
}

// NewAssignment returns an all-unrouted assignment for the problem.
func (p *Problem) NewAssignment() Assignment {
	a := Assignment{Choice: make([]int, len(p.Objects))}
	for i := range a.Choice {
		a.Choice[i] = -1
	}
	return a
}

// RoutedObjects counts objects with a selected candidate.
func (a Assignment) RoutedObjects() int {
	n := 0
	for _, c := range a.Choice {
		if c >= 0 {
			n++
		}
	}
	return n
}

// Usage accumulates the track usage of the assignment on a fresh tracker.
func (p *Problem) Usage(a Assignment) *grid.Usage {
	u := grid.NewUsage(p.Grid)
	p.AddUsage(a, u, 1)
	return u
}

// AddUsage applies (delta=+1) or removes (delta=-1) the assignment's track
// usage on an existing tracker.
func (p *Problem) AddUsage(a Assignment, u *grid.Usage, delta int) {
	for i, c := range a.Choice {
		if c < 0 {
			continue
		}
		for _, e := range p.Cands[i][c].Edges {
			u.Add(int(e.Layer), int(e.Idx), int(e.N)*delta)
		}
	}
}

// Legal reports whether the assignment satisfies every edge capacity
// (constraint (3c)); the returned error pinpoints the first overflow.
func (p *Problem) Legal(a Assignment) error {
	if len(a.Choice) != len(p.Objects) {
		return fmt.Errorf("route: assignment covers %d of %d objects", len(a.Choice), len(p.Objects))
	}
	u := p.Usage(a)
	if u.Overflow() == 0 {
		return nil
	}
	for l := range p.Grid.Layers {
		for idx := 0; idx < p.Grid.EdgeCount(l); idx++ {
			if u.Avail(l, idx) < 0 {
				x, y := p.Grid.EdgeCell(l, idx)
				return fmt.Errorf("route: edge (%d,%d) layer %d overflows by %d", x, y, l, -u.Avail(l, idx))
			}
		}
	}
	return nil
}

// CandidateFits reports whether candidate j of object i fits the remaining
// capacity in u. The check intersects the candidate's word masks against
// the tracker's blocked-edge bitset — O(occupied edges / 64) word-ANDs —
// and falls back to a scalar availability check only for the (rare) edges
// needing two or more tracks.
func (p *Problem) CandidateFits(i, j int, u *grid.Usage) bool {
	c := &p.Cands[i][j]
	layer := int32(-1)
	var words []uint64
	for _, m := range c.Masks {
		if m.Layer != layer {
			layer = m.Layer
			words = u.BlockedWords(int(layer))
		}
		if words[m.Word]&m.Bits != 0 {
			return false
		}
	}
	for _, e := range c.Heavy {
		if u.Avail(int(e.Layer), int(e.Idx)) < int(e.N) {
			return false
		}
	}
	return true
}

// CandUse is candidate Cand of object Obj needing N tracks on an edge.
type CandUse struct{ Obj, Cand, N int }

// CapacityRow is one edge's capacity constraint (3c) over a set of
// objects: the candidates of those objects that use the edge, and the
// Limit on their total track need.
type CapacityRow struct {
	Limit int
	Uses  []CandUse
}

// CapacityRows returns the capacity rows over the candidates of objs that
// can bind. An edge gets a row only when the largest demand objs can place
// on it — for each object the maximum over its candidates, summed over the
// objects — exceeds limit(layer, idx): a selection of at most one candidate
// per object, even a fractional one, never violates any other edge. Rows
// come in first-touch order (objs, then candidates, then their edges) and
// list their uses in the same order.
func (p *Problem) CapacityRows(objs []int, limit func(layer, idx int) int) []CapacityRow {
	// One map lookup per edge use numbers the edges in first-touch order;
	// the demand sums each object's maximum as the object raises it.
	type edgeDemand struct {
		key           topo.EdgeKey
		total, objMax int // summed per-object maxima; maximum of object obj
		obj           int
		row           int // index into rows, or -1
	}
	at := make(map[uint64]int)
	var edges []edgeDemand
	for _, i := range objs {
		for j := range p.Cands[i] {
			for _, e := range p.Cands[i][j].Edges {
				id := edgeID(e)
				x, ok := at[id]
				if !ok {
					x = len(edges)
					at[id] = x
					edges = append(edges, edgeDemand{key: topo.EdgeKey{Layer: int(e.Layer), Idx: int(e.Idx)}, obj: -1})
				}
				d := &edges[x]
				if d.obj != i {
					d.obj, d.objMax = i, 0
				}
				if n := int(e.N); n > d.objMax {
					d.total += n - d.objMax
					d.objMax = n
				}
			}
		}
	}
	var rows []CapacityRow
	for x := range edges {
		d := &edges[x]
		d.row = -1
		if lim := limit(d.key.Layer, d.key.Idx); d.total > lim {
			d.row = len(rows)
			rows = append(rows, CapacityRow{Limit: lim})
		}
	}
	if len(rows) == 0 {
		return nil
	}
	for _, i := range objs {
		for j := range p.Cands[i] {
			for _, e := range p.Cands[i][j].Edges {
				if r := edges[at[edgeID(e)]].row; r >= 0 {
					rows[r].Uses = append(rows[r].Uses, CandUse{Obj: i, Cand: j, N: int(e.N)})
				}
			}
		}
	}
	return rows
}

// edgeID packs an edge's layer and index into one map key.
func edgeID(e topo.EdgeUse) uint64 {
	return uint64(uint32(e.Layer))<<32 | uint64(uint32(e.Idx))
}

// ObjectiveValue evaluates formulation (3a) for the assignment: candidate
// costs, M per unrouted object, and pair irregularity over same-group
// partner pairs (each unordered pair counted once).
func (p *Problem) ObjectiveValue(a Assignment) float64 {
	total := 0.0
	for i, c := range a.Choice {
		if c < 0 {
			total += p.Opt.M
			continue
		}
		total += p.Cost(i, c)
		for _, q := range p.Partners(i) {
			if q > i && a.Choice[q] >= 0 {
				total += p.PairCost(i, c, q, a.Choice[q])
			}
		}
	}
	return total
}

func iabs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
