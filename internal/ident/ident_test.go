package ident

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/signal"
)

// twoStyleGroup reproduces the Fig. 3(a) situation: a group with two
// routing styles — bits driving a sink to the east, and bits driving a sink
// to the northeast.
func twoStyleGroup() signal.Group {
	g := signal.Group{Name: "g"}
	for i := 0; i < 3; i++ {
		g.Bits = append(g.Bits, signal.Bit{
			Name: "east", Driver: 0,
			Pins: []signal.Pin{{Loc: geom.Pt(0, i)}, {Loc: geom.Pt(8, i)}},
		})
	}
	for i := 0; i < 2; i++ {
		g.Bits = append(g.Bits, signal.Bit{
			Name: "ne", Driver: 0,
			Pins: []signal.Pin{{Loc: geom.Pt(0, 10+i)}, {Loc: geom.Pt(8, 14+i)}},
		})
	}
	return g
}

func TestPartitionTwoStyles(t *testing.T) {
	g := twoStyleGroup()
	objs := Partition(0, &g)
	if len(objs) != 2 {
		t.Fatalf("objects = %d, want 2", len(objs))
	}
	if len(objs[0].BitIdx) != 3 || len(objs[1].BitIdx) != 2 {
		t.Errorf("object sizes = %d,%d", len(objs[0].BitIdx), len(objs[1].BitIdx))
	}
	// Every member of an object shares the driver SV.
	for _, o := range objs {
		want := g.Bits[o.BitIdx[0]].DriverSV()
		for _, bi := range o.BitIdx {
			if g.Bits[bi].DriverSV() != want {
				t.Errorf("bit %d driver SV differs within object", bi)
			}
		}
	}
}

func TestPartitionSingletons(t *testing.T) {
	// Bits with genuinely different shapes each get their own object.
	g := signal.Group{Bits: []signal.Bit{
		{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(0, 0)}, {Loc: geom.Pt(5, 0)}}},
		{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(0, 1)}, {Loc: geom.Pt(0, 6)}}},
		{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(0, 2)}, {Loc: geom.Pt(5, 2)}, {Loc: geom.Pt(5, 7)}}},
	}}
	objs := Partition(0, &g)
	if len(objs) != 3 {
		t.Fatalf("objects = %d, want 3", len(objs))
	}
}

func TestPartitionCoversAllBitsExactlyOnce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		g := signal.Group{}
		n := 1 + r.Intn(12)
		for i := 0; i < n; i++ {
			np := 2 + r.Intn(4)
			b := signal.Bit{Driver: 0}
			base := geom.Pt(r.Intn(10), r.Intn(10))
			b.Pins = append(b.Pins, signal.Pin{Loc: base})
			for j := 1; j < np; j++ {
				b.Pins = append(b.Pins, signal.Pin{Loc: base.Add(geom.Pt(r.Intn(9)-4, r.Intn(9)-4))})
			}
			g.Bits = append(g.Bits, b)
		}
		objs := Partition(0, &g)
		seen := map[int]int{}
		for _, o := range objs {
			for _, bi := range o.BitIdx {
				seen[bi]++
			}
		}
		if len(seen) != n {
			t.Fatalf("trial %d: covered %d of %d bits", trial, len(seen), n)
		}
		for bi, c := range seen {
			if c != 1 {
				t.Fatalf("trial %d: bit %d in %d objects", trial, bi, c)
			}
		}
	}
}

func TestPinMapsAreValidPermutations(t *testing.T) {
	g := twoStyleGroup()
	objs := Partition(0, &g)
	for oi, o := range objs {
		rep := o.RepBit(&g)
		for k, bi := range o.BitIdx {
			m := o.PinMap[k]
			if len(m) != len(rep.Pins) {
				t.Fatalf("object %d member %d: map len %d, want %d", oi, k, len(m), len(rep.Pins))
			}
			used := map[int]bool{}
			for repPin, pin := range m {
				if pin < 0 || pin >= len(g.Bits[bi].Pins) {
					t.Fatalf("object %d: mapped pin %d out of range", oi, pin)
				}
				if used[pin] {
					t.Fatalf("object %d: pin %d mapped twice", oi, pin)
				}
				used[pin] = true
				// Mapped pins share the same similarity vector.
				if rep.PinSV(repPin) != g.Bits[bi].PinSV(pin) {
					t.Fatalf("object %d: mapped pins have different SVs", oi)
				}
			}
		}
	}
}

func TestPinMapDriverToDriver(t *testing.T) {
	g := twoStyleGroup()
	for _, o := range Partition(0, &g) {
		rep := o.RepBit(&g)
		for k, bi := range o.BitIdx {
			if got := o.PinMap[k][rep.Driver]; got != g.Bits[bi].Driver {
				t.Errorf("driver mapped to pin %d, want driver %d", got, g.Bits[bi].Driver)
			}
		}
	}
}

func TestRepIsCentral(t *testing.T) {
	g := twoStyleGroup()
	objs := Partition(0, &g)
	o := objs[0] // three east bits at y = 0,1,2; center bit is y=1 (index 1)
	if o.BitIdx[o.Rep] != 1 {
		t.Errorf("representative = bit %d, want 1", o.BitIdx[o.Rep])
	}
}

func TestMirroredBitsSeparate(t *testing.T) {
	// A bit with sink to the east and one with sink to the west must not
	// share an object even though distances match.
	g := signal.Group{Bits: []signal.Bit{
		{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(5, 0)}, {Loc: geom.Pt(9, 0)}}},
		{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(5, 1)}, {Loc: geom.Pt(1, 1)}}},
	}}
	if objs := Partition(0, &g); len(objs) != 2 {
		t.Fatalf("objects = %d, want 2", len(objs))
	}
}

// refSignature and refCanonicalPinOrder are the string-keyed signature and
// pin order Partition used before it keyed on values; refPartition is
// Partition over them. They are the reference the value keys must match.
func refSignature(b *signal.Bit) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n%d|d%s|", len(b.Pins), b.DriverSV())
	svs := make([]string, 0, len(b.Pins))
	for i := range b.Pins {
		svs = append(svs, b.PinSV(i).String())
	}
	sort.Strings(svs)
	sb.WriteString(strings.Join(svs, ";"))
	return sb.String()
}

func refCanonicalPinOrder(b *signal.Bit) []int {
	idx := make([]int, len(b.Pins))
	keys := make([]string, len(b.Pins))
	drv := b.DriverLoc()
	for i := range idx {
		idx[i] = i
		off := b.Pins[i].Loc.Sub(drv)
		keys[i] = fmt.Sprintf("%s|%08d|%08d", b.PinSV(i), off.X+1<<20, off.Y+1<<20)
	}
	sort.Slice(idx, func(a, c int) bool { return keys[idx[a]] < keys[idx[c]] })
	return idx
}

func refPartition(groupIdx int, g *signal.Group) []Object {
	byDriver := make(map[signal.SV][]int)
	for bi := range g.Bits {
		sv := g.Bits[bi].DriverSV()
		byDriver[sv] = append(byDriver[sv], bi)
	}
	bySig := make(map[string][]int)
	for _, members := range byDriver {
		for _, bi := range members {
			sig := refSignature(&g.Bits[bi])
			bySig[sig] = append(bySig[sig], bi)
		}
	}
	sigs := make([]string, 0, len(bySig))
	for s := range bySig {
		sigs = append(sigs, s)
	}
	sort.Slice(sigs, func(i, j int) bool { return bySig[sigs[i]][0] < bySig[sigs[j]][0] })
	var out []Object
	for _, s := range sigs {
		members := bySig[s]
		sort.Ints(members)
		o := Object{GroupIdx: groupIdx, BitIdx: members}
		o.Rep = centerRep(g, members)
		repOrder := refCanonicalPinOrder(&g.Bits[members[o.Rep]])
		for _, bi := range members {
			order := refCanonicalPinOrder(&g.Bits[bi])
			m := make([]int, len(order))
			for pos, repPin := range repOrder {
				m[repPin] = order[pos]
			}
			o.PinMap = append(o.PinMap, m)
		}
		out = append(out, o)
	}
	return out
}

// randomShape returns distinct pin offsets and a driver index. Some shapes
// carry a row or column of 11 or more pins, so SV entries reach 10 and
// above, where string order and numeric order of SVs differ; offsets run
// negative as well as positive around the driver.
func randomShape(r *rand.Rand) ([]geom.Point, int) {
	seen := map[geom.Point]bool{}
	var pts []geom.Point
	add := func(p geom.Point) {
		if !seen[p] {
			seen[p] = true
			pts = append(pts, p)
		}
	}
	if r.Intn(3) == 0 {
		n := 11 + r.Intn(4)
		vertical := r.Intn(2) == 0
		for i := 0; i < n; i++ {
			if vertical {
				add(geom.Pt(0, i-n/2))
			} else {
				add(geom.Pt(i-n/2, 0))
			}
		}
	}
	for n := 2 + r.Intn(6); len(pts) < n || r.Intn(4) == 0; {
		add(geom.Pt(r.Intn(9)-4, r.Intn(9)-4))
		if len(pts) > 20 {
			break
		}
	}
	return pts, r.Intn(len(pts))
}

// randomGroup builds bits as translated copies of a few random shapes,
// each copy listing its pins in a fresh random order, so members of one
// object disagree on pin indices and their pin maps rest on the canonical
// order alone.
func randomGroup(r *rand.Rand) signal.Group {
	shapes := make([][]geom.Point, 1+r.Intn(3))
	drivers := make([]int, len(shapes))
	for i := range shapes {
		shapes[i], drivers[i] = randomShape(r)
	}
	var g signal.Group
	for n := 1 + r.Intn(10); len(g.Bits) < n; {
		s := r.Intn(len(shapes))
		at := geom.Pt(r.Intn(30), r.Intn(30))
		perm := r.Perm(len(shapes[s]))
		b := signal.Bit{Pins: make([]signal.Pin, len(perm))}
		for pos, pi := range perm {
			b.Pins[pos] = signal.Pin{Loc: at.Add(shapes[s][pi])}
			if pi == drivers[s] {
				b.Driver = pos
			}
		}
		g.Bits = append(g.Bits, b)
	}
	return g
}

// TestPartitionMatchesStringKeys checks the value-keyed signature and pin
// order against the string-keyed reference: the same objects, the same
// representatives and the same pin maps.
func TestPartitionMatchesStringKeys(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 400; trial++ {
		g := randomGroup(r)
		got, want := Partition(3, &g), refPartition(3, &g)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Partition = %+v, string-keyed reference = %+v", trial, got, want)
		}
	}
}

// TestDistinctPinsHaveDistinctSVs pins the fact the canonical pin order
// rests on: within a bit, pins at different locations never share an SV,
// so sorting by SV alone orders a bit's pins totally.
func TestDistinctPinsHaveDistinctSVs(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 2000; trial++ {
		pts, drv := randomShape(r)
		b := signal.Bit{Driver: drv}
		for _, p := range pts {
			b.Pins = append(b.Pins, signal.Pin{Loc: p})
		}
		seen := map[signal.SV]int{}
		for i := range b.Pins {
			sv := b.PinSV(i)
			if j, dup := seen[sv]; dup {
				t.Fatalf("trial %d: pins %v and %v share SV %v", trial, b.Pins[j].Loc, b.Pins[i].Loc, sv)
			}
			seen[sv] = i
		}
	}
}
