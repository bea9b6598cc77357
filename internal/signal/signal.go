// Package signal defines the design model of the Streak flow: pins, bits,
// signal groups (Definition 1 in the paper), whole designs, and the
// quadrant-based similarity vector (SV, Eq. 1) that captures each pin's
// relative location inside its bit and drives topology-equivalence
// identification and regularity evaluation.
package signal

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
)

// Pin is one terminal of a signal bit, placed at a G-cell.
type Pin struct {
	// Loc is the pin's G-cell location.
	Loc geom.Point
	// Name is an optional human-readable label.
	Name string
}

// Bit is one signal bit (a net): a driver plus one or more sinks. The
// driver is always Pins[Driver].
type Bit struct {
	// Name is an optional label such as "data[3]".
	Name string
	// Pins holds all terminals, driver included.
	Pins []Pin
	// Driver indexes the driver pin within Pins.
	Driver int
}

// Validate reports the first structural problem with the bit, or nil.
func (b *Bit) Validate() error {
	if len(b.Pins) < 2 {
		return fmt.Errorf("bit %q has %d pins, need >= 2", b.Name, len(b.Pins))
	}
	if b.Driver < 0 || b.Driver >= len(b.Pins) {
		return fmt.Errorf("bit %q driver index %d out of range", b.Name, b.Driver)
	}
	seen := make(map[geom.Point]int, len(b.Pins))
	for pi, p := range b.Pins {
		if prev, dup := seen[p.Loc]; dup {
			return fmt.Errorf("bit %q: pins %d and %d both at %v", b.Name, prev, pi, p.Loc)
		}
		seen[p.Loc] = pi
	}
	return nil
}

// PinLocs returns the locations of all pins, driver included.
func (b *Bit) PinLocs() []geom.Point {
	out := make([]geom.Point, len(b.Pins))
	for i, p := range b.Pins {
		out[i] = p.Loc
	}
	return out
}

// DriverLoc returns the driver pin's location.
func (b *Bit) DriverLoc() geom.Point { return b.Pins[b.Driver].Loc }

// Sinks returns the indices of non-driver pins.
func (b *Bit) Sinks() []int {
	out := make([]int, 0, len(b.Pins)-1)
	for i := range b.Pins {
		if i != b.Driver {
			out = append(out, i)
		}
	}
	return out
}

// Group is a signal group per Definition 1: performance-critical bits whose
// pins are adjacent and which must share common topologies.
type Group struct {
	// Name labels the group.
	Name string
	// Bits holds the member bits.
	Bits []Bit
}

// Validate reports the first structural problem with the group, or nil.
func (g *Group) Validate() error {
	if len(g.Bits) == 0 {
		return fmt.Errorf("group %q is empty", g.Name)
	}
	for i := range g.Bits {
		if err := g.Bits[i].Validate(); err != nil {
			return fmt.Errorf("group %q: %w", g.Name, err)
		}
	}
	return nil
}

// NumPins returns the total pin count across all bits of the group.
func (g *Group) NumPins() int {
	n := 0
	for i := range g.Bits {
		n += len(g.Bits[i].Pins)
	}
	return n
}

// MaxPins returns the maximum pin count of any bit in the group (the
// paper's per-benchmark Np statistic comes from this over all groups).
func (g *Group) MaxPins() int {
	m := 0
	for i := range g.Bits {
		if len(g.Bits[i].Pins) > m {
			m = len(g.Bits[i].Pins)
		}
	}
	return m
}

// GridSpec describes the routing grid of a design in serializable form.
type GridSpec struct {
	// W and H are grid dimensions in G-cells.
	W, H int
	// NumLayers is the size of the alternating H/V metal stack.
	NumLayers int
	// EdgeCap is the default per-edge track capacity on every layer.
	EdgeCap int
	// Blockages lists capacity-zero regions: each entry blocks one layer
	// inside a rectangle.
	Blockages []Blockage
	// Pitch scales G-cell wirelength into the physical unit used in
	// reports. Zero means 1.
	Pitch int
}

// Blockage zeroes (or reduces) edge capacity inside a rectangle on a layer.
type Blockage struct {
	// Layer is the blocked layer index.
	Layer int
	// Rect is the blocked cell region, inclusive.
	Rect geom.Rect
	// Cap is the residual capacity inside the region (usually 0).
	Cap int
}

// Design is a complete routing problem: a grid plus the signal groups.
type Design struct {
	// Name labels the design (e.g. "Industry3").
	Name string
	// Grid describes the routing fabric.
	Grid GridSpec
	// Groups holds the user-defined signal groups.
	Groups []Group
}

// maxGridCells bounds W·H·NumLayers, 33× the largest Industry preset
// (288×288×6). It keeps every G-cell coordinate below 2^23, far inside the
// packed range of geom's kernels, and every per-layer edge index within an
// int32.
const maxGridCells = 1 << 24

// Validate reports the first structural problem with the design, or nil:
// a usable grid (dimensions, positive layer count and edge capacity, at
// most maxGridCells G-cells over all layers, capacities that fit an int32,
// blockages on existing layers), at least one signal group, per-bit
// structure (>= 2 pins, valid driver, no duplicate pin locations), and
// every pin inside the grid bounds. Errors name the offending group and
// bit so a caller can report exactly what to fix.
func (d *Design) Validate() error {
	if d.Grid.W < 2 || d.Grid.H < 2 {
		return fmt.Errorf("design %q: grid %dx%d too small", d.Name, d.Grid.W, d.Grid.H)
	}
	if d.Grid.NumLayers < 2 {
		return fmt.Errorf("design %q: need >= 2 layers", d.Name)
	}
	// Divide rather than multiply, so no product can overflow.
	if w, h := d.Grid.W, d.Grid.H; w > maxGridCells || h > maxGridCells/w || d.Grid.NumLayers > maxGridCells/(w*h) {
		return fmt.Errorf("design %q: grid %dx%dx%d exceeds %d G-cells", d.Name, w, h, d.Grid.NumLayers, maxGridCells)
	}
	if d.Grid.EdgeCap < 1 || d.Grid.EdgeCap > math.MaxInt32 {
		return fmt.Errorf("design %q: edge capacity %d, need 1..%d", d.Name, d.Grid.EdgeCap, math.MaxInt32)
	}
	if d.Grid.Pitch < 0 {
		return fmt.Errorf("design %q: negative pitch %d", d.Name, d.Grid.Pitch)
	}
	for i, b := range d.Grid.Blockages {
		if b.Layer < 0 || b.Layer >= d.Grid.NumLayers {
			return fmt.Errorf("design %q: blockage %d on layer %d, have %d layers", d.Name, i, b.Layer, d.Grid.NumLayers)
		}
		if b.Cap < 0 || b.Cap > math.MaxInt32 {
			return fmt.Errorf("design %q: blockage %d has capacity %d, need 0..%d", d.Name, i, b.Cap, math.MaxInt32)
		}
	}
	if len(d.Groups) == 0 {
		return fmt.Errorf("design %q has no signal groups", d.Name)
	}
	for i := range d.Groups {
		if err := d.Groups[i].Validate(); err != nil {
			return fmt.Errorf("design %q: %w", d.Name, err)
		}
	}
	for gi := range d.Groups {
		for bi := range d.Groups[gi].Bits {
			for _, p := range d.Groups[gi].Bits[bi].Pins {
				if p.Loc.X < 0 || p.Loc.X >= d.Grid.W || p.Loc.Y < 0 || p.Loc.Y >= d.Grid.H {
					return fmt.Errorf("design %q: pin %v of %s/%s off grid", d.Name,
						p.Loc, d.Groups[gi].Name, d.Groups[gi].Bits[bi].Name)
				}
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the design: the copy shares no blockage,
// group, bit or pin storage with d, so either side can be edited without
// the other seeing it.
func (d *Design) Clone() *Design {
	nd := *d
	nd.Grid.Blockages = slices.Clone(d.Grid.Blockages)
	nd.Groups = slices.Clone(d.Groups)
	for gi := range nd.Groups {
		g := &nd.Groups[gi]
		g.Bits = slices.Clone(g.Bits)
		for bi := range g.Bits {
			g.Bits[bi].Pins = slices.Clone(g.Bits[bi].Pins)
		}
	}
	return &nd
}

// NumNets returns the total number of bits (nets) across all groups — the
// paper's "#Net" column.
func (d *Design) NumNets() int {
	n := 0
	for i := range d.Groups {
		n += len(d.Groups[i].Bits)
	}
	return n
}

// NumPins returns the total pin count of the design (x axis of Fig. 13).
func (d *Design) NumPins() int {
	n := 0
	for i := range d.Groups {
		n += d.Groups[i].NumPins()
	}
	return n
}

// MaxPins returns Np_max, the maximum pins of any net.
func (d *Design) MaxPins() int {
	m := 0
	for i := range d.Groups {
		if v := d.Groups[i].MaxPins(); v > m {
			m = v
		}
	}
	return m
}

// MaxWidth returns W_max, the maximum bit count of any group.
func (d *Design) MaxWidth() int {
	m := 0
	for i := range d.Groups {
		if len(d.Groups[i].Bits) > m {
			m = len(d.Groups[i].Bits)
		}
	}
	return m
}
