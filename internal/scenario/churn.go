package scenario

// ECO churn: the scenario engine's model of late-stage design edits. A
// churn stream starts from a base design and applies one small edit per
// step — a group nudged to a new spot, a blockage dropped in, a blockage
// lifted. route.DiffDesigns lists a moved group as changed; a blockage
// edit changes only capacities, so it changes no group and the rebuild
// keeps every object. Every mutation preserves the grid shape and the
// group count, so consecutive designs are always delta-compatible and the
// incremental re-route path (not the cold path) is what gets exercised.

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/signal"
)

// Mutate returns a copy of d with one random ECO edit applied and a short
// label naming the edit ("mv3", "addblk", "rmblk"). The copy is always
// delta-compatible with d (same grid shape, same group count) and always
// passes Validate: group moves translate every pin of the group by the
// same in-bounds offset, which preserves relative pin geometry, so no
// duplicate-pin or out-of-bounds violations can appear.
func Mutate(r *rand.Rand, d *signal.Design) (*signal.Design, string) {
	nd := d.Clone()
	switch r.Intn(3) {
	case 0:
		if label, ok := moveGroup(r, nd); ok {
			return nd, label
		}
		return nd, addBlockage(r, nd)
	case 1:
		return nd, addBlockage(r, nd)
	default:
		if len(nd.Grid.Blockages) > 0 {
			i := r.Intn(len(nd.Grid.Blockages))
			nd.Grid.Blockages = append(nd.Grid.Blockages[:i], nd.Grid.Blockages[i+1:]...)
			return nd, "rmblk"
		}
		return nd, addBlockage(r, nd)
	}
}

// moveGroup translates one group by a small random offset chosen so every
// pin stays in bounds. Reports false if no group in the design can move
// (each picked group was already pinned against all four walls).
func moveGroup(r *rand.Rand, d *signal.Design) (string, bool) {
	if len(d.Groups) == 0 {
		return "", false
	}
	for try := 0; try < len(d.Groups); try++ {
		gi := r.Intn(len(d.Groups))
		g := &d.Groups[gi]
		lo := geom.Pt(d.Grid.W, d.Grid.H)
		hi := geom.Pt(0, 0)
		for _, b := range g.Bits {
			for _, p := range b.Pins {
				lo = geom.Pt(min(lo.X, p.Loc.X), min(lo.Y, p.Loc.Y))
				hi = geom.Pt(max(hi.X, p.Loc.X), max(hi.Y, p.Loc.Y))
			}
		}
		// Legal translation ranges keep the bounding box on the grid; cap
		// the magnitude so a churn step stays a local edit.
		dxLo, dxHi := max(-3, -lo.X), min(3, d.Grid.W-1-hi.X)
		dyLo, dyHi := max(-3, -lo.Y), min(3, d.Grid.H-1-hi.Y)
		if dxHi < dxLo || dyHi < dyLo {
			continue
		}
		dx := dxLo + r.Intn(dxHi-dxLo+1)
		dy := dyLo + r.Intn(dyHi-dyLo+1)
		if dx == 0 && dy == 0 {
			continue
		}
		off := geom.Pt(dx, dy)
		for bi := range g.Bits {
			for pi := range g.Bits[bi].Pins {
				g.Bits[bi].Pins[pi].Loc = g.Bits[bi].Pins[pi].Loc.Add(off)
			}
		}
		return fmt.Sprintf("mv%d", gi), true
	}
	return "", false
}

// addBlockage drops a random rectangular blockage on a random layer.
// Rects can be as small as a single cell and are clipped to the grid by
// construction.
func addBlockage(r *rand.Rand, d *signal.Design) string {
	w := 1 + r.Intn(max(1, d.Grid.W/6))
	h := 1 + r.Intn(max(1, d.Grid.H/6))
	x := r.Intn(max(1, d.Grid.W-w+1))
	y := r.Intn(max(1, d.Grid.H-h+1))
	d.Grid.Blockages = append(d.Grid.Blockages, signal.Blockage{
		Layer: r.Intn(d.Grid.NumLayers),
		Rect:  geom.Rect{Lo: geom.Pt(x, y), Hi: geom.Pt(x+w-1, y+h-1)},
	})
	return "addblk"
}
