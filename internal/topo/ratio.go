package topo

import (
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/signal"
)

// feature is a matchable topology point: a pin or a bending point, with its
// driver-weighted similarity vector (§III-B3).
type feature struct {
	p  geom.Point
	sv signal.SV
}

// Regularity is one tree's side of the regularity ratio (Eq. 2), derived
// once per tree: its features — the distinct RC endpoints, sorted by point,
// with SVs weighted against the bit's pins — and its RCs, each packed as
// the feature indices of its endpoints (lesser first, in the high word),
// sorted. Callers that compare one tree many times derive it once with
// NewRegularity and compare with Ratio.
type Regularity struct {
	feats []feature
	rcs   []uint64
}

// NewRegularity derives the regularity of tree t of bit.
func NewRegularity(t geom.Tree, bit *signal.Bit) Regularity {
	ar := geom.GetArena()
	defer geom.PutArena(ar)
	// The RCs: canonical segments split at the bit's pins, so every RC
	// runs between two features (pins, corners or junctions).
	rcs := ar.SplitAt(ar.Canon(t.Segs), bit.PinLocs())
	if len(rcs) == 0 {
		return Regularity{}
	}
	r := Regularity{feats: make([]feature, 0, 2*len(rcs)), rcs: make([]uint64, len(rcs))}
	for _, s := range rcs {
		r.feats = append(r.feats, feature{p: s.A}, feature{p: s.B})
	}
	slices.SortFunc(r.feats, func(a, b feature) int { return a.p.Compare(b.p) })
	r.feats = slices.CompactFunc(r.feats, func(a, b feature) bool { return a.p == b.p })
	// At a pin's location WeightedPointSV is the pin's weighted SV.
	w := signal.DriverWeightFor(bit)
	for i := range r.feats {
		r.feats[i].sv = signal.WeightedPointSV(r.feats[i].p, bit, w)
	}
	for i, s := range rcs {
		// RCs are normalized, so A sorts before B.
		r.rcs[i] = rcKey(r.featureAt(s.A), r.featureAt(s.B))
	}
	slices.Sort(r.rcs)
	return r
}

// featureAt returns the index of the feature at p.
func (r *Regularity) featureAt(p geom.Point) int {
	i, _ := slices.BinarySearchFunc(r.feats, p, func(f feature, p geom.Point) int { return f.p.Compare(p) })
	return i
}

func rcKey(lo, hi int) uint64 { return uint64(lo)<<32 | uint64(hi) }

// Ratio computes the regularity ratio of two topologies (Eq. 2): pins and
// bending points are matched across the topologies by closest weighted SV;
// the ratio is the number of RCs whose two endpoints map onto an RC of the
// other topology, divided by the smaller RC count. The result is symmetric
// and lies in [0, 1]; 1 means the topologies share one structure.
func Ratio(t1 geom.Tree, bit1 *signal.Bit, t2 geom.Tree, bit2 *signal.Bit) float64 {
	r1, r2 := NewRegularity(t1, bit1), NewRegularity(t2, bit2)
	v, _ := r1.Ratio(&r2, nil)
	return v
}

// Ratio compares two derived trees as the package-level Ratio does, with
// the same result bits in either order. best is scratch; Ratio grows it as
// needed and returns it for reuse.
func (r *Regularity) Ratio(o *Regularity, best []int32) (float64, []int32) {
	n1, n2 := len(r.rcs), len(o.rcs)
	if n1 == 0 || n2 == 0 {
		if n1 == 0 && n2 == 0 {
			return 1, best
		}
		return 0, best
	}
	best = slices.Grow(best[:0], max(len(r.feats), len(o.feats)))
	minRC := min(n1, n2)
	matched := min(max(r.matchedRCs(o, best), o.matchedRCs(r, best)), minRC)
	return float64(matched) / float64(minRC), best
}

// matchedRCs maps every feature of r to its closest-SV feature of o (the
// first in point order on a tie) and counts the RCs of r whose mapped
// endpoints form an RC of o. best is scratch with capacity for r's
// features.
func (r *Regularity) matchedRCs(o *Regularity, best []int32) int {
	best = best[:len(r.feats)]
	for i, f := range r.feats {
		b, bestD := 0, f.sv.L1(o.feats[0].sv)
		for j := 1; j < len(o.feats); j++ {
			if d := f.sv.L1(o.feats[j].sv); d < bestD {
				b, bestD = j, d
			}
		}
		best[i] = int32(b)
	}
	count := 0
	for _, k := range r.rcs {
		a, b := int(best[k>>32]), int(best[uint32(k)])
		if a == b {
			continue
		}
		if _, ok := slices.BinarySearch(o.rcs, rcKey(min(a, b), max(a, b))); ok {
			count++
		}
	}
	return count
}

// RatioTable computes the dense table of regularity ratios between every
// backbone pair of two objects: entry [i*len(b2)+j] is Ratio(b1[i], bit1,
// b2[j], bit2). Each backbone is derived once. Nil backbones (2-D
// topologies that produced no surviving candidate) yield NaN entries,
// which callers must never index — the corresponding topology pair cannot
// be selected.
func RatioTable(b1 []*geom.Tree, bit1 *signal.Bit, b2 []*geom.Tree, bit2 *signal.Bit) []float64 {
	r1, r2 := derive(b1, bit1), derive(b2, bit2)
	tab := make([]float64, len(b1)*len(b2))
	var best []int32
	for i := range b1 {
		row := tab[i*len(b2) : (i+1)*len(b2)]
		for j := range b2 {
			if b1[i] == nil || b2[j] == nil {
				row[j] = math.NaN()
				continue
			}
			row[j], best = r1[i].Ratio(&r2[j], best)
		}
	}
	return tab
}

// derive returns the regularity of every non-nil tree, indexed like ts.
func derive(ts []*geom.Tree, bit *signal.Bit) []Regularity {
	out := make([]Regularity, len(ts))
	for i, t := range ts {
		if t != nil {
			out[i] = NewRegularity(*t, bit)
		}
	}
	return out
}

// PairIrregularity converts a regularity ratio into the cost contribution
// c(i,j,p,q) of formulation (3a): the reciprocal of the ratio, scaled by
// weight, with noShare charged when the topologies share no RCs at all
// (a large penalty that must stay below the non-routing penalty M), plus a
// layer-difference penalty when the shared trunks land on non-adjacent
// layers.
func PairIrregularity(ratio float64, weight float64, noShare float64, layerDist int, layerPenalty float64) float64 {
	if ratio <= 0 {
		return noShare + layerPenalty*float64(layerDist)
	}
	cost := weight * (1/ratio - 1)
	if layerDist > 1 {
		cost += layerPenalty * float64(layerDist-1)
	}
	return cost
}
