// Package metrics computes the evaluation numbers the paper reports:
// routability (fraction of fully routed groups), total wirelength (routed
// geometry plus RSMT estimates for unrouted bits, scaled by the design
// pitch — the paper's WL column uses the same convention), the average
// regularity rate Avg(Reg) of Eq. 9, the Vio(dst) distance-violation
// count, and overflow statistics.
package metrics

import (
	"time"

	"repro/internal/grid"
	"repro/internal/postopt"
	"repro/internal/route"
	"repro/internal/signal"
	"repro/internal/steiner"
	"repro/internal/topo"
)

// Metrics is one row of the paper's result tables.
type Metrics struct {
	// Bench is the design name.
	Bench string
	// Groups, Nets, Pins are design statistics.
	Groups, Nets, Pins int
	// RoutedGroups counts fully routed groups; RouteFrac = RoutedGroups /
	// Groups.
	RoutedGroups int
	// RouteFrac is the paper's "Route" column.
	RouteFrac float64
	// WL is the wirelength in pitch units (paper reports it /1e5).
	WL float64
	// AvgReg is Eq. 9 averaged over routed groups with more than one
	// solution object.
	AvgReg float64
	// VioDst counts groups with source-to-sink deviation violations.
	VioDst int
	// Overflow is total track overflow (0 for Streak results by
	// construction; positive for the manual baseline).
	Overflow int
	// OverflowEdges counts overflowed edges (hotspot extent).
	OverflowEdges int
	// Runtime is the solver wall-clock time.
	Runtime time.Duration
}

// Compute evaluates a routing against its design.
func Compute(d *signal.Design, r *route.Routing, u *grid.Usage, opt postopt.Options) Metrics {
	m := Metrics{
		Bench:  d.Name,
		Groups: len(d.Groups),
		Nets:   d.NumNets(),
		Pins:   d.NumPins(),
	}
	pitch := d.Grid.Pitch
	if pitch == 0 {
		pitch = 1
	}
	// Wirelength accumulates in int64 and is scaled by the pitch in
	// float64: the old int accumulation (`float64(wl * pitch)`) silently
	// overflowed the multiply on large grids and pitches before the
	// conversion could save it.
	var wl int64
	for gi := range d.Groups {
		g := &d.Groups[gi]
		groupRouted := true
		for bi := range g.Bits {
			br := &r.Bits[gi][bi]
			if br.Routed {
				wl += int64(br.Tree.WireLength())
			} else {
				groupRouted = false
				// RSMT estimate for unrouted bits, as the paper does for
				// fair whole-design wirelength reporting.
				wl += int64(steiner.Length(g.Bits[bi].PinLocs()))
			}
		}
		if groupRouted {
			m.RoutedGroups++
		}
	}
	m.WL = float64(wl) * float64(pitch)
	if m.Groups > 0 {
		m.RouteFrac = float64(m.RoutedGroups) / float64(m.Groups)
	}
	m.AvgReg = AvgReg(d, r)
	m.VioDst = postopt.CountViolatedGroups(d, r, opt)
	if u != nil {
		m.Overflow = u.Overflow()
		m.OverflowEdges = u.OverflowEdges()
	}
	return m
}

// GroupReg computes Eq. 9 for one group: the mean pairwise regularity
// ratio over its solution objects' representative topologies. Returns
// (value, ok); ok is false when the group has fewer than two objects (the
// paper requires N_o > 1).
func GroupReg(g *signal.Group, objs []route.SolutionObject) (float64, bool) {
	if len(objs) < 2 {
		return 0, false
	}
	regs := make([]topo.Regularity, len(objs))
	for i := range objs {
		regs[i] = topo.NewRegularity(objs[i].RepTree, &g.Bits[objs[i].RepBit])
	}
	sum := 0.0
	n := 0
	var best []int32
	for i := range regs {
		for j := i + 1; j < len(regs); j++ {
			var v float64
			v, best = regs[i].Ratio(&regs[j], best)
			sum += v
			n++
		}
	}
	return sum / float64(n), true
}

// AvgReg averages Eq. 9 over the routed groups that have more than one
// solution object. When no group qualifies the result is 1 (every routed
// group shares a single topology — perfectly regular).
func AvgReg(d *signal.Design, r *route.Routing) float64 {
	sum, n := 0.0, 0
	for gi := range d.Groups {
		if !r.GroupRouted(gi) {
			continue
		}
		if v, ok := GroupReg(&d.Groups[gi], r.Objects[gi]); ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}
