// Package solvecache is the content-addressed solve cache behind streakd's
// interactive serving path: designs are canonicalized into a content hash,
// exact hits are served as full cached Results, and near-misses — the same
// floorplan after a small edit — are re-routed incrementally from the
// cached base problem, keeping survivors' committed candidates and
// re-running selection over the freed capacity. Every incremental result
// passes the independent legality audit before it is returned or cached;
// any violation falls back to a full cold solve.
package solvecache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/signal"
)

// Key identifies one (design geometry, solve options) pair by content. Two
// designs that differ only in labels (design, group, bit, pin names) or in
// presentation order (pin order within a bit, blockage order) map to the
// same key; anything that can change the routed result maps to a different
// one.
type Key [sha256.Size]byte

// String renders a short hex prefix for logs.
func (k Key) String() string { return hex.EncodeToString(k[:8]) }

// KeyFor computes the content key of a design under the given options.
//
// Canonicalization: the grid shape (W, H, layers, base capacity, pitch),
// the blockage multiset sorted by (layer, rect, cap), and per group —
// in group order — each bit's driver location followed by its sink
// locations in sorted order. Bit pin order and blockage list order are
// presentation details and do not reach the hash; pin locations, driver
// choice and group order do. Options are folded in via a fingerprint of
// every solve-relevant field (see optionsFingerprint).
func KeyFor(d *signal.Design, opt core.Options) Key {
	h := sha256.New()
	hashDesign(h, d)
	puti(h, int(optionsFingerprint(opt)))
	var k Key
	h.Sum(k[:0])
	return k
}

// familyOf coarsely buckets keys that DiffDesigns could bridge: same grid
// shape, same group count, same options. Blockages and pin geometry are
// deliberately excluded — they are exactly what a structured delta edits.
func familyOf(d *signal.Design, opt core.Options) uint64 {
	h := fnv.New64a()
	puti(h, d.Grid.W, d.Grid.H, d.Grid.NumLayers, d.Grid.EdgeCap, d.Grid.Pitch, len(d.Groups))
	puti(h, int(optionsFingerprint(opt)))
	return h.Sum64()
}

// puti writes integers in fixed-width little-endian form, keeping the hash
// input unambiguous (every field is exactly eight bytes).
func puti(w io.Writer, vs ...int) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		w.Write(buf[:])
	}
}

func hashDesign(w io.Writer, d *signal.Design) {
	puti(w, d.Grid.W, d.Grid.H, d.Grid.NumLayers, d.Grid.EdgeCap, d.Grid.Pitch)
	blks := append([]signal.Blockage(nil), d.Grid.Blockages...)
	sort.Slice(blks, func(i, j int) bool {
		a, b := blks[i], blks[j]
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		if a.Rect.Lo != b.Rect.Lo {
			return pointLess(a.Rect.Lo, b.Rect.Lo)
		}
		if a.Rect.Hi != b.Rect.Hi {
			return pointLess(a.Rect.Hi, b.Rect.Hi)
		}
		return a.Cap < b.Cap
	})
	puti(w, len(blks))
	for _, b := range blks {
		puti(w, b.Layer, b.Rect.Lo.X, b.Rect.Lo.Y, b.Rect.Hi.X, b.Rect.Hi.Y, b.Cap)
	}
	puti(w, len(d.Groups))
	for gi := range d.Groups {
		g := &d.Groups[gi]
		puti(w, len(g.Bits))
		for bi := range g.Bits {
			b := &g.Bits[bi]
			drv := b.DriverLoc()
			sinks := make([]geom.Point, 0, len(b.Pins)-1)
			for pi := range b.Pins {
				if pi != b.Driver {
					sinks = append(sinks, b.Pins[pi].Loc)
				}
			}
			sort.Slice(sinks, func(i, j int) bool { return pointLess(sinks[i], sinks[j]) })
			puti(w, len(b.Pins), drv.X, drv.Y)
			for _, p := range sinks {
				puti(w, p.X, p.Y)
			}
		}
	}
}

func pointLess(a, b geom.Point) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Y < b.Y
}

// optionsFingerprint folds every option that can change the solved result
// into one value. Deliberately excluded: Route.Workers (results are
// bit-identical for any worker count by contract), the ignored
// HierWorkers, and Audit
// (the audit annotates a result, it never changes it — the cache attaches
// or strips reports per request). Options carrying a custom Fallback.Chain
// never reach the fingerprint: Solve bypasses the cache for them, because
// function values cannot be content-addressed.
func optionsFingerprint(opt core.Options) uint64 {
	h := fnv.New64a()
	r, p, t := opt.Route, opt.Post, opt.Route.Topo
	fmt.Fprintf(h, "m%d|po%t|cl%t|rf%t|it%d|iw%t|iv%d|ht%d|hp%d|fb%t|",
		opt.Method, opt.PostOpt, opt.Clustering, opt.Refinement,
		opt.ILPTimeLimit, opt.ILPWarmStart, opt.ILPMaxVars,
		opt.HierTiles, opt.HierTimePerTile, opt.Fallback.Enabled)
	fmt.Fprintf(h, "M%g|rw%g|ns%g|lp%g|mc%d|pn%d|",
		r.M, r.RegWeight, r.NoShare, r.LayerPenalty, r.MaxCandidates, r.PairNeighbors)
	fmt.Fprintf(h, "nb%d|bw%d|vw%d|ml%d|",
		t.NumBackbones, t.BendWeight, t.ViaWeight, t.MaxLayerPairs)
	fmt.Fprintf(h, "prw%g|pns%g|pbw%d|pdf%g", p.RegWeight, p.NoShare, p.BendWeight, p.DistFrac)
	return h.Sum64()
}
