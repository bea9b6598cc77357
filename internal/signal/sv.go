package signal

import (
	"fmt"
	"strings"

	"repro/internal/geom"
)

// NumDirs is the number of similarity-vector directions: four quadrants
// plus the four axis directions (Eq. 1).
const NumDirs = 8

// Direction indices, counter-clockwise from +x as in Eq. 1:
// {n(+x), n(I), n(+y), n(II), n(-x), n(III), n(-y), n(IV)}.
const (
	DirPosX = iota // on the +x axis
	DirQ1          // first quadrant  (dx>0, dy>0)
	DirPosY        // on the +y axis
	DirQ2          // second quadrant (dx<0, dy>0)
	DirNegX        // on the -x axis
	DirQ3          // third quadrant  (dx<0, dy<0)
	DirNegY        // on the -y axis
	DirQ4          // fourth quadrant (dx>0, dy<0)
)

// DirOf returns the SV direction of q as seen from p, or -1 when the points
// coincide (a coincident pin contributes to no direction).
func DirOf(p, q geom.Point) int {
	dx, dy := q.X-p.X, q.Y-p.Y
	switch {
	case dx == 0 && dy == 0:
		return -1
	case dx > 0 && dy == 0:
		return DirPosX
	case dx > 0 && dy > 0:
		return DirQ1
	case dx == 0 && dy > 0:
		return DirPosY
	case dx < 0 && dy > 0:
		return DirQ2
	case dx < 0 && dy == 0:
		return DirNegX
	case dx < 0 && dy < 0:
		return DirQ3
	case dx == 0 && dy < 0:
		return DirNegY
	default:
		return DirQ4
	}
}

// SV is a similarity vector: per direction, the number of other pins of the
// bit seen in that direction (Eq. 1). Driver-weighted variants add
// DriverWeight for the driver pin so that drivers map to drivers when bits
// have different pin counts (§III-B3).
type SV [NumDirs]int

// String renders the vector as "{a,b,...}" matching the paper's notation.
func (v SV) String() string {
	parts := make([]string, NumDirs)
	for i, n := range v {
		parts[i] = fmt.Sprint(n)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// L1 returns the L1 distance between two similarity vectors, the metric
// used to find "the most probable pin of another bit" during regularity
// evaluation.
func (v SV) L1(w SV) int {
	d := 0
	for i := range v {
		d += iabs(v[i] - w[i])
	}
	return d
}

// PinSV returns the similarity vector of pin i of the bit: the direction
// histogram of every other pin of the bit as seen from pin i.
func (b *Bit) PinSV(i int) SV {
	var v SV
	from := b.Pins[i].Loc
	for j, q := range b.Pins {
		if j == i {
			continue
		}
		if d := DirOf(from, q.Loc); d >= 0 {
			v[d]++
		}
	}
	return v
}

// DriverSV returns the similarity vector of the bit's driver.
func (b *Bit) DriverSV() SV { return b.PinSV(b.Driver) }

// DriverWeightFor returns the driver weight to use for a bit: one more than
// the pin count, "higher than the overall number of pins".
func DriverWeightFor(b *Bit) int { return len(b.Pins) + 1 }

// WeightedPointSV computes the driver-weighted SV of a point — a pin
// location or a topology bending point — relative to the bit's pins: like
// PinSV, but the driver pin contributes `weight` instead of 1 to its
// direction bucket, and the pins coincident with p (at a pin location, the
// pin itself) count nowhere. The paper sets weight above the total pin
// count so that the relative position to the driver dominates pin matching
// across bits with different pin counts (§III-B3).
func WeightedPointSV(p geom.Point, b *Bit, weight int) SV {
	var v SV
	for j, q := range b.Pins {
		d := DirOf(p, q.Loc)
		if d < 0 {
			continue
		}
		if j == b.Driver {
			v[d] += weight
		} else {
			v[d]++
		}
	}
	return v
}

func iabs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
