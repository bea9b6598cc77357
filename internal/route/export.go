package route

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/geom"
)

// exportBit is the serialized form of one routed bit.
type exportBit struct {
	Group  string   `json:"group"`
	Bit    string   `json:"bit"`
	Routed bool     `json:"routed"`
	HLayer int      `json:"hLayer,omitempty"`
	VLayer int      `json:"vLayer,omitempty"`
	Segs   [][4]int `json:"segs,omitempty"`
	Pins   [][2]int `json:"pins"`
	Driver int      `json:"driver"`
}

// exportDoc is the serialized routing document.
type exportDoc struct {
	Design string      `json:"design"`
	Bits   []exportBit `json:"bits"`
}

// WriteRoutedJSON serializes the routed geometry of the problem's design:
// one record per bit with its layer assignment and canonical segments.
// The format is self-describing and stable, intended for downstream tools
// (DRC scripts, visualizers) rather than for round-tripping back into the
// solver.
func (p *Problem) WriteRoutedJSON(w io.Writer, r *Routing) error {
	doc := exportDoc{Design: p.Design.Name}
	for gi := range p.Design.Groups {
		g := &p.Design.Groups[gi]
		gname := g.Name
		if gname == "" {
			gname = fmt.Sprintf("g%d", gi)
		}
		for bi := range g.Bits {
			bit := &g.Bits[bi]
			bname := bit.Name
			if bname == "" {
				bname = fmt.Sprintf("b%d", bi)
			}
			eb := exportBit{
				Group:  gname,
				Bit:    bname,
				Driver: bit.Driver,
			}
			for _, pin := range bit.Pins {
				eb.Pins = append(eb.Pins, [2]int{pin.Loc.X, pin.Loc.Y})
			}
			br := r.Bits[gi][bi]
			if br.Routed {
				eb.Routed = true
				eb.HLayer, eb.VLayer = br.HLayer, br.VLayer
				for _, s := range br.Tree.Canon().Segs {
					eb.Segs = append(eb.Segs, [4]int{s.A.X, s.A.Y, s.B.X, s.B.Y})
				}
			}
			doc.Bits = append(doc.Bits, eb)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// ReadRoutedJSON parses a routed-geometry document and validates that
// every routed bit's segments form a connected tree over its pins. It
// returns the per-bit trees keyed "group/bit" — a verification aid for
// externally post-processed routes.
func ReadRoutedJSON(rd io.Reader) (map[string]geom.Tree, error) {
	var doc exportDoc
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("route: decoding routed JSON: %w", err)
	}
	out := make(map[string]geom.Tree)
	for _, eb := range doc.Bits {
		if !eb.Routed {
			continue
		}
		if len(eb.Pins) < 2 {
			return nil, fmt.Errorf("route: %s/%s is routed with %d pins; a bit has at least 2", eb.Group, eb.Bit, len(eb.Pins))
		}
		var t geom.Tree
		for _, s := range eb.Segs {
			a := geom.Pt(s[0], s[1])
			b := geom.Pt(s[2], s[3])
			if a.X != b.X && a.Y != b.Y {
				return nil, fmt.Errorf("route: %s/%s has diagonal segment %v-%v", eb.Group, eb.Bit, a, b)
			}
			t.Append(geom.Seg{A: a, B: b})
		}
		pins := make([]geom.Point, len(eb.Pins))
		for i, p := range eb.Pins {
			pins[i] = geom.Pt(p[0], p[1])
		}
		if !t.Connected(pins) {
			return nil, fmt.Errorf("route: %s/%s route does not connect its pins", eb.Group, eb.Bit)
		}
		out[eb.Group+"/"+eb.Bit] = t
	}
	return out, nil
}
