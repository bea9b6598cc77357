package route

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/geom"
	"repro/internal/signal"
)

func TestDiffDesigns(t *testing.T) {
	base := smallDesign()

	t.Run("identical", func(t *testing.T) {
		delta, ok := DiffDesigns(base, smallDesign())
		if !ok || len(delta.ChangedGroups) != 0 {
			t.Fatalf("identical designs: delta %+v ok=%v, want no changed group", delta, ok)
		}
	})

	t.Run("blockage order ignored", func(t *testing.T) {
		b1 := signal.Blockage{Layer: 0, Rect: geom.Rect{Lo: geom.Pt(1, 1), Hi: geom.Pt(2, 2)}}
		b2 := signal.Blockage{Layer: 1, Rect: geom.Rect{Lo: geom.Pt(5, 5), Hi: geom.Pt(6, 6)}}
		a, b := smallDesign(), smallDesign()
		a.Grid.Blockages = []signal.Blockage{b1, b2}
		b.Grid.Blockages = []signal.Blockage{b2, b1}
		delta, ok := DiffDesigns(a, b)
		if !ok || len(delta.ChangedGroups) != 0 {
			t.Fatalf("reordered blockages: delta %+v ok=%v, want no changed group", delta, ok)
		}
	})

	t.Run("added blockage changes no group", func(t *testing.T) {
		edited := smallDesign()
		edited.Grid.Blockages = append(edited.Grid.Blockages,
			signal.Blockage{Layer: 0, Rect: geom.Rect{Lo: geom.Pt(3, 3), Hi: geom.Pt(5, 5)}})
		delta, ok := DiffDesigns(base, edited)
		if !ok || len(delta.ChangedGroups) != 0 {
			t.Fatalf("added blockage: delta %+v ok=%v, want no changed group", delta, ok)
		}
	})

	t.Run("moved group", func(t *testing.T) {
		edited := smallDesign()
		moveGroupPins(edited, 1, 1, 0)
		delta, ok := DiffDesigns(base, edited)
		if !ok || !reflect.DeepEqual(delta.ChangedGroups, []int{1}) {
			t.Fatalf("moved group: delta %+v ok=%v, want group 1 changed", delta, ok)
		}
	})

	t.Run("pin names ignored", func(t *testing.T) {
		edited := smallDesign()
		edited.Groups[0].Bits[0].Pins[0].Name = "renamed"
		edited.Groups[0].Name = "rebranded"
		delta, ok := DiffDesigns(base, edited)
		if !ok || len(delta.ChangedGroups) != 0 {
			t.Fatalf("renames: delta %+v ok=%v, want no changed group", delta, ok)
		}
	})

	t.Run("grid shape change is incompatible", func(t *testing.T) {
		edited := smallDesign()
		edited.Grid.W++
		if _, ok := DiffDesigns(base, edited); ok {
			t.Fatal("resized grid diffed as compatible")
		}
		edited = smallDesign()
		edited.Grid.EdgeCap++
		if _, ok := DiffDesigns(base, edited); ok {
			t.Fatal("recapacitated grid diffed as compatible")
		}
	})
}

// EqualProblems returns the first difference between two problems on every
// public field the solvers read: objects, group-object maps, candidate
// lists, partner lists and the pair cost of every partnered candidate pair;
// nil when they agree. The external fuzz target in this directory shares
// it.
func EqualProblems(want, got *Problem) error {
	if !reflect.DeepEqual(want.Objects, got.Objects) {
		return fmt.Errorf("objects differ: %d vs %d", len(want.Objects), len(got.Objects))
	}
	if !reflect.DeepEqual(want.GroupObjs, got.GroupObjs) {
		return fmt.Errorf("group-object maps differ")
	}
	if !reflect.DeepEqual(want.Cands, got.Cands) {
		return fmt.Errorf("candidate lists differ")
	}
	for i := range want.Objects {
		if !reflect.DeepEqual(want.Partners(i), got.Partners(i)) {
			return fmt.Errorf("object %d partners differ: %v vs %v", i, want.Partners(i), got.Partners(i))
		}
		for _, q := range want.Partners(i) {
			for j := range want.Cands[i] {
				for r := range want.Cands[q] {
					if w, g := want.PairCost(i, j, q, r), got.PairCost(i, j, q, r); w != g {
						return fmt.Errorf("pair cost (%d.%d, %d.%d) differs: %v vs %v", i, j, q, r, w, g)
					}
				}
			}
		}
	}
	return nil
}

// rebuildEquals builds the edited design cold and via RebuildCtx from the
// base problem, and requires the problems to match on every public field
// the solvers read.
func rebuildEquals(t *testing.T, base *Problem, edited *signal.Design, delta Delta) RebuildStats {
	t.Helper()
	cold, err := Build(edited, base.Opt)
	if err != nil {
		t.Fatalf("cold build: %v", err)
	}
	inc, stats, err := base.RebuildCtx(context.Background(), edited, delta)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if err := EqualProblems(cold, inc); err != nil {
		t.Fatalf("rebuild differs from cold build: %v", err)
	}
	return stats
}

// requireKeptAll fails unless the rebuild kept every object.
func requireKeptAll(t *testing.T, stats RebuildStats, objects int) {
	t.Helper()
	if stats.Regenerated != 0 || stats.KeptObjects != objects {
		t.Fatalf("kept %d regenerated %d, want all %d kept", stats.KeptObjects, stats.Regenerated, objects)
	}
}

func TestRebuildMatchesColdBuild(t *testing.T) {
	base, err := Build(smallDesign(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	addBlockage := func(r geom.Rect) *signal.Design {
		d := smallDesign()
		d.Grid.Blockages = append(d.Grid.Blockages, signal.Blockage{Layer: 0, Rect: r})
		return d
	}

	t.Run("remote blockage keeps all candidates", func(t *testing.T) {
		edited := addBlockage(geom.Rect{Lo: geom.Pt(21, 21), Hi: geom.Pt(22, 22)})
		delta, ok := DiffDesigns(base.Design, edited)
		if !ok {
			t.Fatal("diff not ok")
		}
		requireKeptAll(t, rebuildEquals(t, base, edited, delta), len(base.Objects))
	})

	t.Run("blockage on the bus keeps every object", func(t *testing.T) {
		edited := addBlockage(geom.Rect{Lo: geom.Pt(6, 2), Hi: geom.Pt(8, 3)})
		delta, ok := DiffDesigns(base.Design, edited)
		if !ok || len(delta.ChangedGroups) != 0 {
			t.Fatalf("delta %+v ok=%v, want no changed group", delta, ok)
		}
		requireKeptAll(t, rebuildEquals(t, base, edited, delta), len(base.Objects))
	})

	t.Run("moved group regenerates and matches", func(t *testing.T) {
		edited := smallDesign()
		moveGroupPins(edited, 1, 0, 1)
		delta, ok := DiffDesigns(base.Design, edited)
		if !ok {
			t.Fatal("diff not ok")
		}
		stats := rebuildEquals(t, base, edited, delta)
		if stats.Regenerated != len(base.GroupObjs[1]) || stats.KeptObjects != len(base.GroupObjs[0]) {
			t.Fatalf("kept %d regenerated %d, want group 0's %d kept and group 1's %d regenerated",
				stats.KeptObjects, stats.Regenerated, len(base.GroupObjs[0]), len(base.GroupObjs[1]))
		}
	})

	t.Run("group count change refuses", func(t *testing.T) {
		edited := smallDesign()
		edited.Groups = edited.Groups[:1]
		if _, _, err := base.RebuildCtx(context.Background(), edited, Delta{}); err == nil {
			t.Fatal("rebuild across group counts succeeded, want error")
		}
		if _, _, err := base.RebuildCtx(context.Background(), smallDesign(), Delta{ChangedGroups: []int{2}}); err == nil {
			t.Fatal("rebuild with an out-of-range changed group succeeded, want error")
		}
	})
}

// TestCandidatesIgnoreCapacity pins the invariant the rebuild rests on:
// objects and candidates depend on the grid shape and the pins only, so a
// grid with every layer blocked everywhere yields exactly the problem an
// unblocked grid does.
func TestCandidatesIgnoreCapacity(t *testing.T) {
	for _, open := range []*signal.Design{
		smallDesign(),
		benchgen.Scale(benchgen.Industry(2), 0.06).Generate(),
	} {
		open.Grid.Blockages = nil
		blocked := open.Clone()
		whole := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(open.Grid.W-1, open.Grid.H-1)}
		for l := 0; l < open.Grid.NumLayers; l++ {
			blocked.Grid.Blockages = append(blocked.Grid.Blockages, signal.Blockage{Layer: l, Rect: whole})
		}
		a, err := Build(open, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(blocked, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Objects, b.Objects) || !reflect.DeepEqual(a.GroupObjs, b.GroupObjs) {
			t.Fatalf("%s: blocking the grid changed the objects", open.Name)
		}
		if !reflect.DeepEqual(a.Cands, b.Cands) {
			t.Fatalf("%s: blocking the grid changed the candidates", open.Name)
		}
	}
}
