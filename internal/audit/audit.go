// Package audit independently verifies the legality of a finished routing.
// It trusts nothing the solvers computed: track usage is re-derived from
// the routed geometry (the same arithmetic as Routing.UsageOf, but guarded
// so hostile inputs cannot panic), per-edge per-layer capacity is checked
// against the grid's base capacities, every routed bit must connect all of
// its pins, and every layer assignment must name a real layer of the right
// direction. The result is a structured violation report the flow can
// surface in warn mode or turn into a hard error in strict mode.
package audit

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/signal"
)

// Kind classifies a legality violation.
type Kind int

const (
	// Malformed means the routing's shape does not match the design
	// (missing groups or bits).
	Malformed Kind = iota
	// BadLayer means a routed bit names a layer outside the metal stack or
	// with the wrong routing direction for its trunks.
	BadLayer
	// OffGrid means a routed segment leaves the grid.
	OffGrid
	// Disconnected means a routed bit's tree does not span all its pins.
	Disconnected
	// OverCapacity means an edge carries more tracks than its capacity.
	OverCapacity
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Malformed:
		return "malformed"
	case BadLayer:
		return "bad-layer"
	case OffGrid:
		return "off-grid"
	case Disconnected:
		return "disconnected"
	case OverCapacity:
		return "over-capacity"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Violation is one legality failure. Group and Bit address the offending
// bit for per-bit kinds and are -1 for grid-level kinds (OverCapacity).
type Violation struct {
	// Kind classifies the failure.
	Kind Kind
	// Group and Bit index the offending bit, or -1.
	Group, Bit int
	// Layer is the offending layer, or -1.
	Layer int
	// Detail is a human-readable description.
	Detail string
}

// String formats the violation.
func (v Violation) String() string {
	loc := ""
	if v.Group >= 0 {
		loc = fmt.Sprintf("group %d bit %d: ", v.Group, v.Bit)
	}
	return fmt.Sprintf("%s: %s%s", v.Kind, loc, v.Detail)
}

// Report is the outcome of one audit.
type Report struct {
	// Violations lists every failure found, in deterministic order.
	Violations []Violation
	// BitsAudited counts the routed bits inspected.
	BitsAudited int
	// EdgesAudited counts the grid edges whose capacity was checked.
	EdgesAudited int
}

// OK reports whether the audit found no violations.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Count returns the number of violations of one kind.
func (r *Report) Count(k Kind) int {
	n := 0
	for _, v := range r.Violations {
		if v.Kind == k {
			n++
		}
	}
	return n
}

// Summary is a one-line digest ("legal" or per-kind counts).
func (r *Report) Summary() string {
	if r.OK() {
		return fmt.Sprintf("legal (%d bits, %d edges audited)", r.BitsAudited, r.EdgesAudited)
	}
	parts := []string{}
	for _, k := range []Kind{Malformed, BadLayer, OffGrid, Disconnected, OverCapacity} {
		if n := r.Count(k); n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, k))
		}
	}
	return fmt.Sprintf("%d violations: %s", len(r.Violations), strings.Join(parts, ", "))
}

// Err returns nil for a clean report, or an error carrying the summary and
// the first violations.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	const show = 5
	lines := make([]string, 0, show+1)
	for i, v := range r.Violations {
		if i == show {
			lines = append(lines, fmt.Sprintf("... and %d more", len(r.Violations)-show))
			break
		}
		lines = append(lines, v.String())
	}
	return fmt.Errorf("audit: %s\n  %s", r.Summary(), strings.Join(lines, "\n  "))
}

// CheckCtx is Check instrumented through the context's telemetry recorder
// (if any): the audit runs inside an "audit" stage span and records its
// violation and coverage counters. The audit itself is identical to Check.
func CheckCtx(ctx context.Context, d *signal.Design, g *grid.Grid, r *route.Routing) Report {
	var rep Report
	_ = obs.Do(ctx, obs.StageAudit, 0, func(context.Context) error {
		rep = Check(d, g, r)
		return nil
	})
	if rec := obs.FromContext(ctx); rec != nil {
		rec.Add(obs.CounterAuditViolations, int64(len(rep.Violations)))
		rec.Add(obs.CounterAuditBits, int64(rep.BitsAudited))
		rec.Add(obs.CounterAuditEdges, int64(rep.EdgesAudited))
	}
	return rep
}

// Check audits a routing against its design and grid. The grid must be the
// one the routing was produced on (blockages applied), typically
// Problem.Grid. It never panics, whatever the routing contains: bits whose
// geometry cannot be legally applied are reported and excluded from the
// capacity accounting.
func Check(d *signal.Design, g *grid.Grid, r *route.Routing) Report {
	var rep Report
	if r == nil {
		rep.Violations = append(rep.Violations, Violation{
			Kind: Malformed, Group: -1, Bit: -1, Layer: -1, Detail: "nil routing",
		})
		return rep
	}
	if len(r.Bits) != len(d.Groups) {
		rep.Violations = append(rep.Violations, Violation{
			Kind: Malformed, Group: -1, Bit: -1, Layer: -1,
			Detail: fmt.Sprintf("routing covers %d of %d groups", len(r.Bits), len(d.Groups)),
		})
		return rep
	}

	// Per-bit legality: layer range and direction, bounds, connectivity.
	// Only clean bits contribute to the re-derived usage so one corrupt
	// tree cannot mask (or fabricate) capacity violations elsewhere.
	u := grid.NewUsage(g)
	for gi := range r.Bits {
		if len(r.Bits[gi]) != len(d.Groups[gi].Bits) {
			rep.Violations = append(rep.Violations, Violation{
				Kind: Malformed, Group: gi, Bit: -1, Layer: -1,
				Detail: fmt.Sprintf("routing covers %d of %d bits", len(r.Bits[gi]), len(d.Groups[gi].Bits)),
			})
			continue
		}
		for bi := range r.Bits[gi] {
			br := &r.Bits[gi][bi]
			if !br.Routed {
				continue
			}
			rep.BitsAudited++
			if vs := auditBit(d, g, gi, bi, br); len(vs) > 0 {
				rep.Violations = append(rep.Violations, vs...)
				continue
			}
			route.AddTreeUsage(u, br.Tree, br.HLayer, br.VLayer, 1)
		}
	}

	// Capacity: every edge of every layer against the re-derived usage.
	for l := range g.Layers {
		for idx := 0; idx < g.EdgeCount(l); idx++ {
			rep.EdgesAudited++
			if over := -u.Avail(l, idx); over > 0 {
				x, y := g.EdgeCell(l, idx)
				rep.Violations = append(rep.Violations, Violation{
					Kind: OverCapacity, Group: -1, Bit: -1, Layer: l,
					Detail: fmt.Sprintf("edge (%d,%d) layer %d over capacity by %d (%d > %d)",
						x, y, l, over, u.Use(l, idx), g.Cap(l, x, y)),
				})
			}
		}
	}
	return rep
}

// auditBit checks one routed bit's layers, bounds and connectivity. A
// non-empty return means the bit's usage must not be applied to the grid.
// The raw segments are checked before anything canonicalizes them:
// canonicalization would fold a diagonal wire into an axis-aligned run, and
// its packed kernels panic on coordinates far off the grid. A bit with a
// wire that is diagonal or leaves the grid is reported OffGrid and gets no
// connectivity check.
func auditBit(d *signal.Design, g *grid.Grid, gi, bi int, br *route.BitRoute) []Violation {
	var out []Violation
	badLayer := func(l int, want grid.Dir, role string) {
		if l < 0 || l >= len(g.Layers) {
			out = append(out, Violation{
				Kind: BadLayer, Group: gi, Bit: bi, Layer: l,
				Detail: fmt.Sprintf("%s layer %d outside metal stack of %d", role, l, len(g.Layers)),
			})
			return
		}
		if g.Layers[l].Dir != want {
			out = append(out, Violation{
				Kind: BadLayer, Group: gi, Bit: bi, Layer: l,
				Detail: fmt.Sprintf("%s layer %d (%s) routes %s wires", role, l, g.Layers[l].Dir, want),
			})
		}
	}
	badLayer(br.HLayer, grid.Horizontal, "horizontal")
	badLayer(br.VLayer, grid.Vertical, "vertical")

	offGrid := false
	for _, s := range br.Tree.Segs {
		switch {
		case !s.Horizontal() && !s.Vertical():
			out = append(out, Violation{
				Kind: OffGrid, Group: gi, Bit: bi, Layer: -1,
				Detail: fmt.Sprintf("segment %v is not rectilinear", s),
			})
			offGrid = true
		case !g.InBounds(s.A.X, s.A.Y) || !g.InBounds(s.B.X, s.B.Y):
			out = append(out, Violation{
				Kind: OffGrid, Group: gi, Bit: bi, Layer: -1,
				Detail: fmt.Sprintf("segment %v leaves the %dx%d grid", s, g.W, g.H),
			})
			offGrid = true
		}
	}
	if offGrid {
		return out
	}

	bit := &d.Groups[gi].Bits[bi]
	if !br.Tree.Connected(bit.PinLocs()) {
		out = append(out, Violation{
			Kind: Disconnected, Group: gi, Bit: bi, Layer: -1,
			Detail: fmt.Sprintf("tree does not connect all %d pins", len(bit.Pins)),
		})
	}
	return out
}
