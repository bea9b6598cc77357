package audit_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/audit"
	"repro/internal/benchgen"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/route"
	"repro/internal/signal"
)

// solvedCase is one legal routing the fuzzer corrupts: its design, the grid
// it was routed on, and the (group, bit) of every routed bit.
type solvedCase struct {
	d      *signal.Design
	g      *grid.Grid
	r      *route.Routing
	routed [][2]int
}

// solvedCases routes Industry1–7 @0.04 and the pindense preset once with the
// default flow (primal-dual plus post-optimization).
var solvedCases = sync.OnceValues(func() ([]solvedCase, error) {
	var designs []*signal.Design
	for n := 1; n <= 7; n++ {
		designs = append(designs, benchgen.Scale(benchgen.Industry(n), 0.04).Generate())
	}
	dense, err := benchgen.Degenerate("pindense", 1)
	if err != nil {
		return nil, err
	}
	designs = append(designs, dense)
	var out []solvedCase
	for _, d := range designs {
		res, err := core.Run(d, core.Options{PostOpt: true, Clustering: true, Refinement: true})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		c := solvedCase{d: d, g: res.Problem.Grid, r: res.Routing}
		for gi := range c.r.Bits {
			for bi := range c.r.Bits[gi] {
				if c.r.Bits[gi][bi].Routed {
					c.routed = append(c.routed, [2]int{gi, bi})
				}
			}
		}
		if rep := audit.Check(d, c.g, c.r); !rep.OK() {
			return nil, fmt.Errorf("%s: uncorrupted routing fails the audit: %v", d.Name, rep.Err())
		}
		out = append(out, c)
	}
	return out, nil
})

// Corruption kinds, one per kind of illegal wire the audit must catch.
const (
	corruptDiagonal = iota // a diagonal wire from a tree node
	corruptOffGrid         // one segment moved off the grid
	corruptWrongDir        // a trunk layer of the wrong direction
	corruptDropSink        // every segment touching one sink dropped
	corruptKinds
)

// step moves v by m inside [0, n), away from the nearer edge when v+m
// would leave it.
func step(v, m, n int) int {
	if v+m >= 0 && v+m < n {
		return v + m
	}
	return v - m
}

// corrupt returns a copy of br with one corruption applied and the
// violation kind the audit must report for it. a and b pick the segment,
// sink, layer and offsets.
func corrupt(c *solvedCase, gi, bi int, br route.BitRoute, kind int, a, b uint32) (route.BitRoute, audit.Kind) {
	segs := slices.Clone(br.Tree.Segs)
	s := segs[a%uint32(len(segs))]
	switch kind {
	case corruptDiagonal:
		n := s.A
		if b&1 != 0 {
			n = s.B
		}
		mx, my := 1+int(b>>1&3), 1+int(b>>3&3)
		if b>>5&1 != 0 {
			mx = -mx
		}
		if b>>6&1 != 0 {
			my = -my
		}
		end := geom.Pt(step(n.X, mx, c.g.W), step(n.Y, my, c.g.H))
		br.Tree.Segs = append(segs, geom.Seg{A: n, B: end})
		return br, audit.OffGrid
	case corruptOffGrid:
		far := []geom.Point{
			{X: c.g.W}, {X: -c.g.W}, {Y: c.g.H}, {Y: -c.g.H},
			{X: 1 << 31}, {X: -1 << 31}, {Y: 1 << 31}, {Y: -1 << 31},
		}
		segs[a%uint32(len(segs))] = s.Translate(far[b%uint32(len(far))])
		br.Tree.Segs = segs
		return br, audit.OffGrid
	case corruptWrongDir:
		if b&1 == 0 {
			v := c.g.VLayers()
			br.HLayer = v[a%uint32(len(v))]
		} else {
			h := c.g.HLayers()
			br.VLayer = h[a%uint32(len(h))]
		}
		return br, audit.BadLayer
	default:
		bit := &c.d.Groups[gi].Bits[bi]
		sinks := bit.Sinks()
		sink := bit.Pins[sinks[a%uint32(len(sinks))]].Loc
		br.Tree.Segs = slices.DeleteFunc(segs, func(s geom.Seg) bool { return s.Contains(sink) })
		return br, audit.Disconnected
	}
}

// FuzzAuditCatches corrupts one routed bit of a legal routing and demands
// that the audit report a violation of the matching kind naming that bit,
// and no capacity violation: a corrupt bit contributes no usage, and the
// rest of the routing stays legal.
func FuzzAuditCatches(f *testing.F) {
	cases, err := solvedCases()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, design uint8, bit uint16, kind uint8, a, b uint32) {
		c := &cases[int(design)%len(cases)]
		ref := c.routed[int(bit)%len(c.routed)]
		gi, bi := ref[0], ref[1]
		r := *c.r
		r.Bits = slices.Clone(r.Bits)
		r.Bits[gi] = slices.Clone(r.Bits[gi])
		var want audit.Kind
		r.Bits[gi][bi], want = corrupt(c, gi, bi, r.Bits[gi][bi], int(kind)%corruptKinds, a, b)

		rep := audit.Check(c.d, c.g, &r)
		named := false
		for _, v := range rep.Violations {
			named = named || v.Kind == want && v.Group == gi && v.Bit == bi
		}
		if !named {
			t.Fatalf("%s: %v on group %d bit %d (tree %v, layers %d/%d) not reported: %s",
				c.d.Name, want, gi, bi, r.Bits[gi][bi].Tree.Segs, r.Bits[gi][bi].HLayer, r.Bits[gi][bi].VLayer, rep.Summary())
		}
		if n := rep.Count(audit.OverCapacity); n != 0 {
			t.Fatalf("%s: corrupting group %d bit %d produced %d over-capacity violations", c.d.Name, gi, bi, n)
		}
	})
}
