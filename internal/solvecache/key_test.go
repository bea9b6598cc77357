package solvecache

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/signal"
)

// keyDesign builds a small two-group design with a multi-sink bit and a
// couple of blockages — enough structure for every canonicalization axis.
func keyDesign() *signal.Design {
	return &signal.Design{
		Name: "key-test",
		Grid: signal.GridSpec{
			W: 16, H: 16, NumLayers: 4, EdgeCap: 4,
			Blockages: []signal.Blockage{
				{Layer: 0, Rect: geom.Rect{Lo: geom.Pt(1, 1), Hi: geom.Pt(2, 2)}},
				{Layer: 1, Rect: geom.Rect{Lo: geom.Pt(8, 8), Hi: geom.Pt(9, 9)}},
			},
		},
		Groups: []signal.Group{
			{Name: "g0", Bits: []signal.Bit{
				{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(2, 3)}, {Loc: geom.Pt(10, 3)}, {Loc: geom.Pt(10, 6)}}},
				{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(2, 4)}, {Loc: geom.Pt(10, 4)}}},
			}},
			{Name: "g1", Bits: []signal.Bit{
				{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(3, 12)}, {Loc: geom.Pt(12, 12)}}},
			}},
		},
	}
}

func TestKeyCanonicalization(t *testing.T) {
	opt := core.Options{}
	base := KeyFor(keyDesign(), opt)

	t.Run("pin order does not change the key", func(t *testing.T) {
		d := keyDesign()
		// Rotate the multi-sink bit's pins and repoint Driver at the same
		// location: identical geometry, different presentation.
		b := &d.Groups[0].Bits[0]
		b.Pins = []signal.Pin{b.Pins[2], b.Pins[0], b.Pins[1]}
		b.Driver = 1
		if KeyFor(d, opt) != base {
			t.Fatal("permuting pins changed the key")
		}
	})

	t.Run("blockage order does not change the key", func(t *testing.T) {
		d := keyDesign()
		d.Grid.Blockages[0], d.Grid.Blockages[1] = d.Grid.Blockages[1], d.Grid.Blockages[0]
		if KeyFor(d, opt) != base {
			t.Fatal("permuting blockages changed the key")
		}
	})

	t.Run("names do not change the key", func(t *testing.T) {
		d := keyDesign()
		d.Name = "other"
		d.Groups[0].Name = "renamed"
		d.Groups[0].Bits[0].Name = "bitname"
		d.Groups[0].Bits[0].Pins[0].Name = "pinname"
		if KeyFor(d, opt) != base {
			t.Fatal("renaming changed the key")
		}
	})

	t.Run("moving a pin changes the key", func(t *testing.T) {
		d := keyDesign()
		d.Groups[0].Bits[0].Pins[1].Loc.X++
		if KeyFor(d, opt) == base {
			t.Fatal("moving a pin kept the key")
		}
	})

	t.Run("changing the driver changes the key", func(t *testing.T) {
		d := keyDesign()
		d.Groups[0].Bits[0].Driver = 1
		if KeyFor(d, opt) == base {
			t.Fatal("repointing the driver at another pin kept the key")
		}
	})

	t.Run("blockage and grid edits change the key", func(t *testing.T) {
		d := keyDesign()
		d.Grid.Blockages = d.Grid.Blockages[:1]
		if KeyFor(d, opt) == base {
			t.Fatal("dropping a blockage kept the key")
		}
		d = keyDesign()
		d.Grid.EdgeCap++
		if KeyFor(d, opt) == base {
			t.Fatal("changing edge capacity kept the key")
		}
	})

	t.Run("solve-relevant options change the key", func(t *testing.T) {
		if KeyFor(keyDesign(), core.Options{Method: core.ILP}) == base {
			t.Fatal("changing the method kept the key")
		}
		if KeyFor(keyDesign(), core.Options{PostOpt: true}) == base {
			t.Fatal("enabling post-optimization kept the key")
		}
	})

	t.Run("worker counts do not change the key", func(t *testing.T) {
		o := opt
		o.Route.Workers = 7
		if KeyFor(keyDesign(), o) != base {
			t.Fatal("parallelism knobs changed the key despite bit-identical results")
		}
	})
}

func TestFamilyIgnoresBlockagesAndPins(t *testing.T) {
	opt := core.Options{}
	base := familyOf(keyDesign(), opt)
	d := keyDesign()
	d.Grid.Blockages = nil
	d.Groups[0].Bits[0].Pins[0].Loc.X++
	if familyOf(d, opt) != base {
		t.Fatal("blockage/pin edits changed the family; they must stay delta-bridgeable")
	}
	d = keyDesign()
	d.Grid.W++
	if familyOf(d, opt) == base {
		t.Fatal("grid resize kept the family")
	}
}
