// Package ident implements Streak's identification stage (§III-A): it
// partitions each signal group into routing objects such that every bit in
// an object has the same similarity vector for every pin, which guarantees
// an equivalent topology exists for all of them. The partition is
// hierarchical, as in Fig. 5(b): each bit's key leads with its driver SV,
// then the SVs of the remaining pins, so bits part by one lookup on that
// key instead of being compared against every other bit.
package ident

import (
	"encoding/binary"
	"slices"

	"repro/internal/geom"
	"repro/internal/signal"
)

// Object is one routing object: a maximal set of bits of a group that can
// share an equivalent topology. Pins of every member bit map 1:1 onto the
// pins of the representative bit.
type Object struct {
	// GroupIdx is the index of the owning group in the design.
	GroupIdx int
	// BitIdx lists the member bits as indices into the group's Bits.
	BitIdx []int
	// Rep is the position inside BitIdx of the representative bit (the one
	// whose driver is closest to the object's pin bounding-box center, per
	// §III-B1 "a bit in the center region").
	Rep int
	// PinMap[k][i] gives, for member k, the pin index in that bit which
	// corresponds to pin i of the representative bit.
	PinMap [][]int
}

// RepBit returns the representative bit of the object within the group.
func (o *Object) RepBit(g *signal.Group) *signal.Bit {
	return &g.Bits[o.BitIdx[o.Rep]]
}

// Bits returns the member bits of the object in order.
func (o *Object) Bits(g *signal.Group) []*signal.Bit {
	out := make([]*signal.Bit, len(o.BitIdx))
	for i, bi := range o.BitIdx {
		out[i] = &g.Bits[bi]
	}
	return out
}

// pinKey is one pin of a bit with its similarity vector.
type pinKey struct {
	sv  signal.SV
	pin int
}

func cmpPinKey(a, b pinKey) int { return slices.Compare(a.sv[:], b.sv[:]) }

// canonicalPinKeys fills keys with the bit's pins in canonical order,
// sorted by SV. The order is total: two pins at different locations never
// share an SV, because when q lies in direction d of p, p counts q and
// every pin q counts in direction d, so p's count in d is larger. Members
// of an object share one set of pin SVs, so their canonical orders align
// corresponding pins.
func canonicalPinKeys(keys []pinKey, b *signal.Bit) []pinKey {
	keys = keys[:0]
	for i := range b.Pins {
		keys = append(keys, pinKey{sv: b.PinSV(i), pin: i})
	}
	slices.SortFunc(keys, cmpPinKey)
	return keys
}

// appendSignature appends the canonical isomorphism key of a bit to sig:
// its pin count, the driver SV, and the SVs of all pins in canonical
// order. Bits are topologically equivalent candidates iff their
// signatures match. keys is the bit's canonicalPinKeys.
func appendSignature(sig []byte, b *signal.Bit, keys []pinKey) []byte {
	sig = binary.AppendUvarint(sig, uint64(len(keys)))
	for _, k := range keys {
		if k.pin == b.Driver {
			sig = appendSV(sig, k.sv)
		}
	}
	for _, k := range keys {
		sig = appendSV(sig, k.sv)
	}
	return sig
}

// appendSV appends the vector as one uvarint per entry; SV entries count
// pins and are never negative.
func appendSV(sig []byte, sv signal.SV) []byte {
	for _, n := range sv {
		sig = binary.AppendUvarint(sig, uint64(n))
	}
	return sig
}

// Partition splits the group into routing objects. Bits with identical
// per-pin similarity vectors land in the same object; each object carries a
// representative bit and per-bit pin mappings. The order of objects is
// deterministic (by first member bit index).
func Partition(groupIdx int, g *signal.Group) []Object {
	// Each bit is keyed on its signature, which leads with the driver SV:
	// bits with different drivers part on the key's first entries (the
	// middle, blue nodes of Fig. 5(b)), and the remaining pin SVs split
	// them further (the gray leaf nodes).
	orders := make([][]int, len(g.Bits))
	pins := make([]int, 0, g.NumPins())
	classOf := make(map[string]int)
	var classes [][]int
	var keys []pinKey
	var sig []byte
	for bi := range g.Bits {
		b := &g.Bits[bi]
		keys = canonicalPinKeys(keys, b)
		for _, k := range keys {
			pins = append(pins, k.pin)
		}
		orders[bi] = pins[len(pins)-len(keys) : len(pins) : len(pins)]
		sig = appendSignature(sig[:0], b, keys)
		if c, ok := classOf[string(sig)]; ok {
			classes[c] = append(classes[c], bi)
		} else {
			classOf[string(sig)] = len(classes)
			classes = append(classes, []int{bi})
		}
	}
	// Bits are visited in index order, so classes come sorted by their
	// first member and list their members ascending.
	var out []Object
	for _, members := range classes {
		o := Object{GroupIdx: groupIdx, BitIdx: members}
		o.Rep = centerRep(g, members)
		o.PinMap = buildPinMaps(orders, members, o.Rep)
		out = append(out, o)
	}
	return out
}

// centerRep picks the member whose driver is closest to the center of the
// object's pin bounding box.
func centerRep(g *signal.Group, members []int) int {
	var pts []geom.Point
	for _, bi := range members {
		pts = append(pts, g.Bits[bi].PinLocs()...)
	}
	c := geom.BBox(pts).Center()
	best, bestDist := 0, int(^uint(0)>>1)
	for k, bi := range members {
		if d := geom.Dist(g.Bits[bi].DriverLoc(), c); d < bestDist {
			best, bestDist = k, d
		}
	}
	return best
}

// buildPinMaps maps each member bit's pins onto the representative's pins
// by position in their canonical orders.
func buildPinMaps(orders [][]int, members []int, rep int) [][]int {
	repOrder := orders[members[rep]]
	maps := make([][]int, len(members))
	for k, bi := range members {
		order := orders[bi]
		m := make([]int, len(order))
		for pos, repPin := range repOrder {
			m[repPin] = order[pos]
		}
		maps[k] = m
	}
	return maps
}
