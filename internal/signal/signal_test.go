package signal

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
)

func sampleDesign() *Design {
	return &Design{
		Name: "sample",
		Grid: GridSpec{W: 16, H: 16, NumLayers: 4, EdgeCap: 4, Pitch: 10,
			Blockages: []Blockage{{Layer: 0, Rect: geom.Rect{Lo: geom.Pt(4, 4), Hi: geom.Pt(6, 6)}}}},
		Groups: []Group{
			{
				Name: "g0",
				Bits: []Bit{
					{Name: "b0", Driver: 0, Pins: []Pin{{Loc: geom.Pt(1, 1)}, {Loc: geom.Pt(9, 1)}}},
					{Name: "b1", Driver: 0, Pins: []Pin{{Loc: geom.Pt(1, 2)}, {Loc: geom.Pt(9, 2)}}},
				},
			},
			{
				Name: "g1",
				Bits: []Bit{
					{Name: "m0", Driver: 1, Pins: []Pin{{Loc: geom.Pt(3, 10)}, {Loc: geom.Pt(2, 8)}, {Loc: geom.Pt(6, 12)}}},
				},
			},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := sampleDesign().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		mutate func(*Design)
		want   string
	}{
		{func(d *Design) { d.Grid.W = 1 }, "too small"},
		{func(d *Design) { d.Grid.NumLayers = 1 }, "layers"},
		{func(d *Design) { d.Groups[0].Bits = nil }, "empty"},
		{func(d *Design) { d.Groups[0].Bits[0].Pins = d.Groups[0].Bits[0].Pins[:1] }, "pins"},
		{func(d *Design) { d.Groups[0].Bits[0].Driver = 5 }, "driver"},
		{func(d *Design) { d.Groups[1].Bits[0].Pins[2].Loc = geom.Pt(99, 99) }, "off grid"},
		{func(d *Design) { d.Grid.EdgeCap = 0 }, "edge capacity"},
		{func(d *Design) { d.Grid.EdgeCap = -3 }, "edge capacity"},
		{func(d *Design) { d.Grid.EdgeCap = 3e9 }, "edge capacity"},
		{func(d *Design) { d.Grid.W, d.Grid.H = 1<<12, 1<<12 }, "exceeds"},
		{func(d *Design) { d.Grid.W, d.Grid.H = 1<<32, 1<<32 }, "exceeds"},
		{func(d *Design) { d.Grid.W, d.Grid.NumLayers = 1<<20, 1<<44 }, "exceeds"},
		{func(d *Design) { d.Grid.Pitch = -1 }, "pitch"},
		{func(d *Design) { d.Grid.Blockages[0].Layer = 9 }, "blockage"},
		{func(d *Design) { d.Grid.Blockages[0].Cap = -1 }, "blockage"},
		{func(d *Design) { d.Grid.Blockages[0].Cap = 3e9 }, "blockage"},
		{func(d *Design) { d.Groups = nil }, "no signal groups"},
		{func(d *Design) { d.Groups[0].Bits[1].Pins[1].Loc = d.Groups[0].Bits[1].Pins[0].Loc }, "both at"},
	}
	for i, c := range cases {
		d := sampleDesign()
		c.mutate(d)
		err := d.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: err = %v, want contains %q", i, err, c.want)
		}
	}
}

// TestValidateNamesOffender pins that a duplicate-pin error names the
// design, group, and bit so server/CLI callers can report what to fix.
func TestValidateNamesOffender(t *testing.T) {
	d := sampleDesign()
	d.Groups[0].Bits[1].Pins[1].Loc = d.Groups[0].Bits[1].Pins[0].Loc
	err := d.Validate()
	if err == nil {
		t.Fatal("duplicate pin accepted")
	}
	for _, frag := range []string{`"sample"`, `"g0"`, `"b1"`} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("err %q does not name %s", err, frag)
		}
	}
}

func TestCounters(t *testing.T) {
	d := sampleDesign()
	if d.NumNets() != 3 {
		t.Errorf("NumNets = %d", d.NumNets())
	}
	if d.NumPins() != 7 {
		t.Errorf("NumPins = %d", d.NumPins())
	}
	if d.MaxPins() != 3 {
		t.Errorf("MaxPins = %d", d.MaxPins())
	}
	if d.MaxWidth() != 2 {
		t.Errorf("MaxWidth = %d", d.MaxWidth())
	}
}

func TestBitHelpers(t *testing.T) {
	b := sampleDesign().Groups[1].Bits[0]
	if b.DriverLoc() != geom.Pt(2, 8) {
		t.Errorf("DriverLoc = %v", b.DriverLoc())
	}
	sinks := b.Sinks()
	if len(sinks) != 2 || sinks[0] != 0 || sinks[1] != 2 {
		t.Errorf("Sinks = %v", sinks)
	}
	locs := b.PinLocs()
	if len(locs) != 3 || locs[1] != geom.Pt(2, 8) {
		t.Errorf("PinLocs = %v", locs)
	}
}

// TestCloneDesignAliasing: the clone equals the original, and editing it
// must never write through to the original.
func TestCloneDesignAliasing(t *testing.T) {
	d := sampleDesign()
	c := d.Clone()
	if !reflect.DeepEqual(c, d) {
		t.Fatalf("clone differs from the original:\n got %+v\nwant %+v", c, d)
	}
	c.Groups[0].Bits[0].Pins[0].Loc = c.Groups[0].Bits[0].Pins[0].Loc.Add(geom.Pt(1, 1))
	c.Groups[1].Bits[0].Driver = 0
	c.Groups[1].Name = "renamed"
	c.Grid.Blockages[0].Cap = 3
	c.Grid.Blockages = append(c.Grid.Blockages, d.Grid.Blockages...)
	if !reflect.DeepEqual(d, sampleDesign()) {
		t.Fatal("editing the clone changed the original")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	d := sampleDesign()
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if got.Name != d.Name || got.NumNets() != d.NumNets() || got.NumPins() != d.NumPins() {
		t.Error("round trip changed design stats")
	}
	if got.Groups[1].Bits[0].Driver != 1 {
		t.Error("driver index lost")
	}
	if len(got.Grid.Blockages) != 1 {
		t.Error("blockages lost")
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"Name":"x","Grid":{"W":1,"H":1,"NumLayers":2,"EdgeCap":1}}`)); err == nil {
		t.Error("invalid design accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"Bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

// oversizedBody is a design of under 200 bytes whose 2^20×2^20×64 grid
// would ask grid.New for about 256 TiB of edge capacities.
const oversizedBody = `{"Name":"huge","Grid":{"W":1048576,"H":1048576,"NumLayers":64,"EdgeCap":1},` +
	`"Groups":[{"Name":"g","Bits":[{"Name":"b","Driver":0,"Pins":[{"Loc":{"X":0,"Y":0}},{"Loc":{"X":1048575,"Y":1048575}}]}]}]}`

func TestReadJSONRejectsOversizedGrid(t *testing.T) {
	_, err := ReadJSON(strings.NewReader(oversizedBody))
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("ReadJSON(oversized grid) err = %v, want the grid bound", err)
	}
	// The bound admits the largest preset grid (288x288x6) with room.
	d := sampleDesign()
	d.Grid.W, d.Grid.H, d.Grid.NumLayers = 2048, 2048, 4
	if err := d.Validate(); err != nil {
		t.Fatalf("2048x2048x4 grid rejected: %v", err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	d := sampleDesign()
	path := filepath.Join(t.TempDir(), "design.json")
	if err := d.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if got.Name != "sample" || got.NumNets() != 3 {
		t.Error("file round trip mismatch")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}

func TestGroupMaxPins(t *testing.T) {
	g := sampleDesign().Groups[1]
	if g.MaxPins() != 3 || g.NumPins() != 3 {
		t.Errorf("MaxPins=%d NumPins=%d", g.MaxPins(), g.NumPins())
	}
}
