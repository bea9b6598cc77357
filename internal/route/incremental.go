package route

import (
	"context"
	"fmt"

	"repro/internal/signal"
)

// Delta is a structured design edit: the groups whose pins moved.
// DiffDesigns produces it; Problem.RebuildCtx consumes it to decide which
// groups keep the base problem's objects and candidate lists.
type Delta struct {
	// ChangedGroups lists the indices of groups whose pin geometry (pin
	// locations or driver location, names ignored) differs between the two
	// designs. Their objects are re-partitioned and regenerated.
	ChangedGroups []int
}

// DiffDesigns compares two designs and returns the structured delta from
// old to new. ok is false when the designs are not delta-compatible — the
// grid shape (dimensions, layer count, base capacity, pitch) or the group
// count differs — in which case an incremental rebuild is meaningless and
// the caller must do a full cold build. Blockages never reach the delta:
// they change capacities, which no candidate depends on. Design and group
// names are ignored: they do not affect routing.
func DiffDesigns(old, new *signal.Design) (Delta, bool) {
	var delta Delta
	if old.Grid.W != new.Grid.W || old.Grid.H != new.Grid.H ||
		old.Grid.NumLayers != new.Grid.NumLayers ||
		old.Grid.EdgeCap != new.Grid.EdgeCap ||
		old.Grid.Pitch != new.Grid.Pitch ||
		len(old.Groups) != len(new.Groups) {
		return delta, false
	}
	for gi := range old.Groups {
		if !groupGeometryEqual(&old.Groups[gi], &new.Groups[gi]) {
			delta.ChangedGroups = append(delta.ChangedGroups, gi)
		}
	}
	return delta, true
}

// groupGeometryEqual reports whether two groups have identical routing
// geometry: same bit count, and per bit the same driver location and the
// same pin-location sequence. Names are irrelevant to routing and ignored.
func groupGeometryEqual(a, b *signal.Group) bool {
	if len(a.Bits) != len(b.Bits) {
		return false
	}
	for i := range a.Bits {
		ab, bb := &a.Bits[i], &b.Bits[i]
		if len(ab.Pins) != len(bb.Pins) || ab.DriverLoc() != bb.DriverLoc() {
			return false
		}
		for pi := range ab.Pins {
			if ab.Pins[pi].Loc != bb.Pins[pi].Loc {
				return false
			}
		}
	}
	return true
}

// RebuildStats reports what an incremental rebuild reused versus redid.
type RebuildStats struct {
	// KeptObjects counts objects whose candidate lists were carried over
	// from the base problem: every object of an unchanged group.
	KeptObjects int
	// Regenerated counts objects whose candidates were generated afresh:
	// the objects of the changed groups.
	Regenerated int
}

// RebuildCtx builds the selection problem for design d from the receiver,
// the problem of a previously solved base design, and the delta between
// the two designs (from DiffDesigns). It runs BuildCtx's stages, except
// that every group outside delta.ChangedGroups keeps the base problem's
// objects and candidate lists; only the changed groups are partitioned and
// generated. The pair-cost kernel is filled for the whole problem, and
// selection then runs from scratch over the new capacities.
//
// The result equals a cold build of d. Partitioning, topology generation
// and 3-D expansion read only the grid shape and a group's pin geometry;
// capacities enter only at selection, through constraint (3c). So an
// unchanged group on an unchanged grid shape has exactly the objects and
// candidates a cold build would give it, whatever blockages were added or
// removed. Kept candidate slices are shared with the base problem (they
// are read-only after build).
//
// d must be delta-compatible with the base design (same grid shape and
// group count; see DiffDesigns).
func (p *Problem) RebuildCtx(ctx context.Context, d *signal.Design, delta Delta) (*Problem, RebuildStats, error) {
	var stats RebuildStats
	if len(d.Groups) != len(p.Design.Groups) {
		return nil, stats, fmt.Errorf("route: rebuild across group counts (%d -> %d); need a full build",
			len(p.Design.Groups), len(d.Groups))
	}
	changed := make([]bool, len(d.Groups))
	for _, gi := range delta.ChangedGroups {
		if gi < 0 || gi >= len(changed) {
			return nil, stats, fmt.Errorf("route: delta changes group %d of %d", gi, len(changed))
		}
		changed[gi] = true
	}
	np, regenerated, err := build(ctx, d, p.Opt, p, changed)
	if err != nil {
		return nil, stats, err
	}
	stats.Regenerated = regenerated
	stats.KeptObjects = len(np.Objects) - regenerated
	return np, stats, nil
}
