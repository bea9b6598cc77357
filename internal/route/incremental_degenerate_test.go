package route

// Degenerate-input coverage for the differ and the incremental rebuild:
// the shapes ECO churn actually produces — single-bit groups whose pin
// bounding boxes are lines, a one-cell blockage, and a blockage added and
// another removed in the same edit.

import (
	"reflect"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/geom"
	"repro/internal/signal"
)

// moveGroupPins translates every pin of group gi by (dx, dy) in place.
func moveGroupPins(d *signal.Design, gi, dx, dy int) {
	for bi := range d.Groups[gi].Bits {
		for pi := range d.Groups[gi].Bits[bi].Pins {
			p := &d.Groups[gi].Bits[bi].Pins[pi]
			p.Loc = geom.Pt(p.Loc.X+dx, p.Loc.Y+dy)
		}
	}
}

// TestDiffDesignsSingleBitGroups: width-1 groups have degenerate (line or
// point) pin bounding boxes; the diff must still classify a move, and the
// incremental rebuild must regenerate exactly the moved group's object and
// still match the cold build.
func TestDiffDesignsSingleBitGroups(t *testing.T) {
	baseD := benchgen.SingleBitGroups(5, 6, 24, 24)
	if err := baseD.Validate(); err != nil {
		t.Fatal(err)
	}
	base, err := Build(baseD, Options{})
	if err != nil {
		t.Fatal(err)
	}

	edited := baseD.Clone()
	moveGroupPins(edited, 2, 1, 1)
	delta, ok := DiffDesigns(baseD, edited)
	if !ok {
		t.Fatal("single-bit designs diffed as incompatible")
	}
	if !reflect.DeepEqual(delta.ChangedGroups, []int{2}) {
		t.Fatalf("changed groups %v, want [2]", delta.ChangedGroups)
	}
	stats := rebuildEquals(t, base, edited, delta)
	if stats.Regenerated != 1 || stats.KeptObjects != len(base.Objects)-1 {
		t.Fatalf("kept %d regenerated %d, want only the moved group's object regenerated",
			stats.KeptObjects, stats.Regenerated)
	}
}

// TestDiffDesignsOneCellBlockage: a one-cell blockage (Lo == Hi) right on
// the bus trunk is the smallest possible edit. It changes no group, so the
// rebuild keeps every object and must still match cold.
func TestDiffDesignsOneCellBlockage(t *testing.T) {
	baseD := smallDesign()
	base, err := Build(baseD, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// One cell right on the bus trunk of smallDesign's group 0.
	cell := geom.Rect{Lo: geom.Pt(7, 2), Hi: geom.Pt(7, 2)}
	edited := smallDesign()
	edited.Grid.Blockages = append(edited.Grid.Blockages, signal.Blockage{Layer: 0, Rect: cell})
	delta, ok := DiffDesigns(baseD, edited)
	if !ok || len(delta.ChangedGroups) != 0 {
		t.Fatalf("delta %+v ok=%v, want no changed group", delta, ok)
	}
	requireKeptAll(t, rebuildEquals(t, base, edited, delta), len(base.Objects))
}

// TestDiffDesignsAddAndRemoveBlockage: one edit step that removes a
// blockage and adds a different one frees capacity under the first and
// takes it under the second. Neither changes a group, so the rebuild keeps
// every object and must match cold.
func TestDiffDesignsAddAndRemoveBlockage(t *testing.T) {
	removed := signal.Blockage{Layer: 0, Rect: geom.Rect{Lo: geom.Pt(2, 2), Hi: geom.Pt(3, 3)}}
	added := signal.Blockage{Layer: 1, Rect: geom.Rect{Lo: geom.Pt(15, 15), Hi: geom.Pt(17, 16)}}

	baseD := smallDesign()
	baseD.Grid.Blockages = append(baseD.Grid.Blockages, removed)
	base, err := Build(baseD, Options{})
	if err != nil {
		t.Fatal(err)
	}

	edited := baseD.Clone()
	edited.Grid.Blockages[len(edited.Grid.Blockages)-1] = added
	delta, ok := DiffDesigns(baseD, edited)
	if !ok || len(delta.ChangedGroups) != 0 {
		t.Fatalf("delta %+v ok=%v, want no changed group", delta, ok)
	}
	requireKeptAll(t, rebuildEquals(t, base, edited, delta), len(base.Objects))
}
