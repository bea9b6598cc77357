package geom

import (
	"math/rand"
	"sort"
	"testing"
)

// The reference implementations below are verbatim copies of the map-based
// kernels the Arena replaced; the tests pin the SoA kernels against them on
// randomized segment soups, including the byte-for-byte output order of
// Canon that downstream usage accounting depends on.

type refLine struct {
	horizontal bool
	fixed      int
	lo, hi     int
}

func refMergeLines(segs []Seg) []refLine {
	type key struct {
		horizontal bool
		fixed      int
	}
	groups := make(map[key][][2]int)
	for _, s := range segs {
		if s.Len() == 0 {
			continue
		}
		n := s.Norm()
		if n.Horizontal() {
			k := key{true, n.A.Y}
			groups[k] = append(groups[k], [2]int{n.A.X, n.B.X})
		} else {
			k := key{false, n.A.X}
			groups[k] = append(groups[k], [2]int{n.A.Y, n.B.Y})
		}
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].horizontal != keys[j].horizontal {
			return keys[i].horizontal
		}
		return keys[i].fixed < keys[j].fixed
	})
	var out []refLine
	for _, k := range keys {
		ivs := groups[k]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		cur := ivs[0]
		for _, iv := range ivs[1:] {
			if iv[0] <= cur[1] {
				if iv[1] > cur[1] {
					cur[1] = iv[1]
				}
				continue
			}
			out = append(out, refLine{k.horizontal, k.fixed, cur[0], cur[1]})
			cur = iv
		}
		out = append(out, refLine{k.horizontal, k.fixed, cur[0], cur[1]})
	}
	return out
}

func refWireLength(segs []Seg) int {
	total := 0
	for _, iv := range refMergeLines(segs) {
		total += iv.hi - iv.lo
	}
	return total
}

func refCanon(segs []Seg) []Seg {
	lines := refMergeLines(segs)
	cuts := make([][]int, len(lines))
	for i, l := range lines {
		cuts[i] = []int{l.lo, l.hi}
	}
	for i, a := range lines {
		for j, b := range lines {
			if i == j || a.horizontal == b.horizontal {
				continue
			}
			if b.fixed >= a.lo && b.fixed <= a.hi && a.fixed >= b.lo && a.fixed <= b.hi {
				cuts[i] = append(cuts[i], b.fixed)
			}
		}
	}
	var out []Seg
	for i, l := range lines {
		cs := cuts[i]
		sort.Ints(cs)
		prev := cs[0]
		for _, c := range cs[1:] {
			if c == prev {
				continue
			}
			if l.horizontal {
				out = append(out, Seg{A: Point{prev, l.fixed}, B: Point{c, l.fixed}})
			} else {
				out = append(out, Seg{A: Point{l.fixed, prev}, B: Point{l.fixed, c}})
			}
			prev = c
		}
	}
	return out
}

func refBends(segs []Seg) int {
	c := refCanon(segs)
	type inc struct{ h, v, deg int }
	m := make(map[Point]*inc)
	touch := func(p Point, horizontal bool) {
		e := m[p]
		if e == nil {
			e = &inc{}
			m[p] = e
		}
		e.deg++
		if horizontal {
			e.h++
		} else {
			e.v++
		}
	}
	for _, s := range c {
		touch(s.A, s.Horizontal())
		touch(s.B, s.Horizontal())
	}
	bends := 0
	for _, e := range m {
		if e.deg == 2 && e.h == 1 && e.v == 1 {
			bends++
		}
	}
	return bends
}

// refAdjacency, refConnected and refPathLength are the map-based tree
// queries the arena's tree view replaced, verbatim but for the receiver.

// refAdjacency returns node list and adjacency (indices) of the canonical tree.
func refAdjacency(t Tree) ([]Point, map[Point][]Point) {
	c := t.Canon()
	adj := make(map[Point][]Point)
	for _, s := range c.Segs {
		adj[s.A] = append(adj[s.A], s.B)
		adj[s.B] = append(adj[s.B], s.A)
	}
	nodes := make([]Point, 0, len(adj))
	for p := range adj {
		nodes = append(nodes, p)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Less(nodes[j]) })
	return nodes, adj
}

// refConnected reports whether the tree is a single connected component that
// touches every one of the given pins. An empty tree is connected iff all
// pins coincide.
func refConnected(t Tree, pins []Point) bool {
	if len(t.Segs) == 0 {
		for _, p := range pins[1:] {
			if p != pins[0] {
				return false
			}
		}
		return true
	}
	for _, p := range pins {
		if !t.OnTree(p) {
			return false
		}
	}
	nodes, adj := refAdjacency(t)
	seen := map[Point]bool{nodes[0]: true}
	stack := []Point{nodes[0]}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range adj[p] {
			if !seen[q] {
				seen[q] = true
				stack = append(stack, q)
			}
		}
	}
	return len(seen) == len(nodes)
}

// refPathLength returns the length of the unique path between two points on
// the tree, or -1 when either point is off-tree or the tree is disconnected
// between them. Used for source-to-sink distance accounting.
func refPathLength(t Tree, from, to Point) int {
	if from == to {
		if t.OnTree(from) || len(t.Segs) == 0 {
			return 0
		}
		return -1
	}
	if !t.OnTree(from) || !t.OnTree(to) {
		return -1
	}
	// Split segments at from/to by adding zero-extent markers is not enough;
	// instead cut the canonical segs that contain the endpoints.
	c := t.Canon()
	var segs []Seg
	for _, s := range c.Segs {
		pts := []int{}
		horiz := s.Horizontal()
		coord := func(p Point) int {
			if horiz {
				return p.X
			}
			return p.Y
		}
		n := s.Norm()
		for _, p := range []Point{from, to} {
			if s.Contains(p) && p != n.A && p != n.B {
				pts = append(pts, coord(p))
			}
		}
		if len(pts) == 0 {
			segs = append(segs, n)
			continue
		}
		pts = append(pts, coord(n.A), coord(n.B))
		sort.Ints(pts)
		for i := 0; i+1 < len(pts); i++ {
			if pts[i] == pts[i+1] {
				continue
			}
			if horiz {
				segs = append(segs, Seg{A: Point{pts[i], n.A.Y}, B: Point{pts[i+1], n.A.Y}})
			} else {
				segs = append(segs, Seg{A: Point{n.A.X, pts[i]}, B: Point{n.A.X, pts[i+1]}})
			}
		}
	}
	adj := make(map[Point][]Point)
	for _, s := range segs {
		adj[s.A] = append(adj[s.A], s.B)
		adj[s.B] = append(adj[s.B], s.A)
	}
	// Dijkstra with linear extraction — segment graphs are tiny, and the
	// shortest path is well-defined even when overlapping segments form
	// cycles (a proper tree has a unique path, which is then also the
	// shortest).
	dist := map[Point]int{from: 0}
	done := map[Point]bool{}
	for {
		cur, curD := Point{}, -1
		for p, d := range dist {
			if !done[p] && (curD == -1 || d < curD) {
				cur, curD = p, d
			}
		}
		if curD == -1 {
			return -1
		}
		if cur == to {
			return curD
		}
		done[cur] = true
		for _, q := range adj[cur] {
			nd := curD + Dist(cur, q)
			if old, ok := dist[q]; !ok || nd < old {
				dist[q] = nd
			}
		}
	}
}

// randSegs draws a random rectilinear segment soup: overlapping runs,
// duplicate and zero-length segments, negative coordinates, crossings.
func randSegs(rng *rand.Rand, n int) []Seg {
	segs := make([]Seg, 0, n)
	for i := 0; i < n; i++ {
		x := rng.Intn(21) - 10
		y := rng.Intn(21) - 10
		d := rng.Intn(11) - 5
		if rng.Intn(2) == 0 {
			segs = append(segs, Seg{A: Point{x, y}, B: Point{x + d, y}})
		} else {
			segs = append(segs, Seg{A: Point{x, y}, B: Point{x, y + d}})
		}
	}
	return segs
}

func TestArenaKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := GetArena()
	defer PutArena(a)
	for trial := 0; trial < 2000; trial++ {
		segs := randSegs(rng, 1+rng.Intn(14))
		t1 := Tree{Segs: segs}

		if got, want := a.WireLength(segs), refWireLength(segs); got != want {
			t.Fatalf("trial %d: WireLength=%d want %d (segs %v)", trial, got, want, segs)
		}
		if got, want := t1.WireLength(), refWireLength(segs); got != want {
			t.Fatalf("trial %d: Tree.WireLength=%d want %d", trial, got, want)
		}

		wantCanon := refCanon(segs)
		gotCanon := a.Canon(segs)
		if len(gotCanon) != len(wantCanon) {
			t.Fatalf("trial %d: Canon len=%d want %d (segs %v)", trial, len(gotCanon), len(wantCanon), segs)
		}
		for i := range gotCanon {
			if gotCanon[i] != wantCanon[i] {
				t.Fatalf("trial %d: Canon[%d]=%v want %v (segs %v)", trial, i, gotCanon[i], wantCanon[i], segs)
			}
		}
		treeCanon := t1.Canon().Segs
		if len(treeCanon) != len(wantCanon) {
			t.Fatalf("trial %d: Tree.Canon len=%d want %d", trial, len(treeCanon), len(wantCanon))
		}
		for i := range treeCanon {
			if treeCanon[i] != wantCanon[i] {
				t.Fatalf("trial %d: Tree.Canon[%d]=%v want %v", trial, i, treeCanon[i], wantCanon[i])
			}
		}

		if got, want := a.Bends(segs), refBends(segs); got != want {
			t.Fatalf("trial %d: Bends=%d want %d (segs %v)", trial, got, want, segs)
		}
		if got, want := t1.Bends(), refBends(segs); got != want {
			t.Fatalf("trial %d: Tree.Bends=%d want %d (segs %v)", trial, got, want, segs)
		}
	}
}

func TestArenaWideCoordinates(t *testing.T) {
	// An endpoint outside the packed 31-bit range panics, whichever of the
	// run's fixed coordinate, start or end it is: a wrapped key would
	// mis-sort, and a wrapped end would corrupt every length.
	const out = coordBias
	segs := map[string]Seg{
		"fixed":   {A: Pt(0, out), B: Pt(5, out)},
		"lo":      {A: Pt(-out-1, 0), B: Pt(0, 0)},
		"hi":      {A: Pt(0, 0), B: Pt(out, 0)},
		"v-fixed": {A: Pt(-out-1, 0), B: Pt(-out-1, 5)},
		"v-lo":    {A: Pt(0, -out-1), B: Pt(0, 3)},
		"v-hi":    {A: Pt(0, 0), B: Pt(0, 1<<40)},
	}
	a := new(Arena)
	kernels := map[string]func(Seg){
		"WireLength": func(s Seg) { a.WireLength([]Seg{s}) },
		"Bends":      func(s Seg) { a.Bends([]Seg{s}) },
		"Canon":      func(s Seg) { a.Canon([]Seg{s}) },
		"Connected":  func(s Seg) { Tree{Segs: []Seg{s}}.Connected([]Point{s.A, s.B}) },
	}
	for sname, s := range segs {
		for kname, k := range kernels {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s on the %s endpoint %v returned instead of panicking", kname, sname, s)
					}
				}()
				k(s)
			}()
		}
	}
}

func TestArenaScratchReuse(t *testing.T) {
	// The same arena must produce correct results across interleaved kernel
	// calls; scratch from one call must not leak into the next.
	rng := rand.New(rand.NewSource(11))
	a := GetArena()
	defer PutArena(a)
	segsA := randSegs(rng, 12)
	segsB := randSegs(rng, 3)
	wantA, wantB := refCanon(segsA), refCanon(segsB)
	for i := 0; i < 50; i++ {
		ca := append([]Seg(nil), a.Canon(segsA)...)
		_ = a.WireLength(segsB)
		_ = a.Bends(segsA)
		cb := append([]Seg(nil), a.Canon(segsB)...)
		if len(ca) != len(wantA) || len(cb) != len(wantB) {
			t.Fatalf("iter %d: scratch leak: lens %d/%d want %d/%d", i, len(ca), len(cb), len(wantA), len(wantB))
		}
		for j := range ca {
			if ca[j] != wantA[j] {
				t.Fatalf("iter %d: Canon A mismatch at %d", i, j)
			}
		}
		for j := range cb {
			if cb[j] != wantB[j] {
				t.Fatalf("iter %d: Canon B mismatch at %d", i, j)
			}
		}
	}
}

// treeQueryOffsets shift a decoded soup; all but the first put it at an
// edge of the packed-key range [-2^30, 2^30).
var treeQueryOffsets = []Point{{0, 0}, {coordBias - 16, 0}, {0, 8 - coordBias}, {8 - coordBias, coordBias - 16}}

// decodeTreeQuery reads a segment soup, a source and targets from fuzz
// input. Byte 0 picks a coordinate offset from treeQueryOffsets; 3-byte
// records follow: x and y in [-2, 5], then a byte whose low three bits pick
// the kind (0-2 horizontal, 3-5 vertical, 6 query point, 7 diagonal) and
// whose rest gives a length in [-5, 5], zero included. The first query
// point is the source (the first segment's B when there is none); the
// other query points and every segment's A are the targets.
func decodeTreeQuery(data []byte) (segs []Seg, from Point, to []Point) {
	if len(data) == 0 {
		return nil, Point{}, nil
	}
	off := treeQueryOffsets[int(data[0])%len(treeQueryOffsets)]
	var query []Point
	for rec := data[1:]; len(rec) >= 3; rec = rec[3:] {
		p := Pt(int(rec[0]%8)-2, int(rec[1]%8)-2).Add(off)
		l := int(rec[2]>>3)%11 - 5
		switch k := rec[2] % 8; {
		case k < 3:
			segs = append(segs, Seg{A: p, B: p.Add(Pt(l, 0))})
		case k < 6:
			segs = append(segs, Seg{A: p, B: p.Add(Pt(0, l))})
		case k == 6:
			query = append(query, p)
		default:
			segs = append(segs, Seg{A: p, B: p.Add(Pt(l, l))})
		}
	}
	switch {
	case len(query) > 0:
		from, query = query[0], query[1:]
	case len(segs) > 0:
		from = segs[0].B
	default:
		from = off
	}
	to = query
	for _, s := range segs {
		to = append(to, s.A)
	}
	return segs, from, to
}

// refConnectedOK calls refConnected, reporting ok=false where it panics:
// on pins that all lie on a tree without wire.
func refConnectedOK(t Tree, pins []Point) (conn, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return refConnected(t, pins), true
}

// checkTreeQueries pins the tree view against the map-based references.
// PathLengths is specified for rectilinear trees, so soups with a diagonal
// segment (which only the audit's connectivity check sees) skip it.
func checkTreeQueries(t *testing.T, segs []Seg, from Point, to []Point) {
	t.Helper()
	tr := Tree{Segs: segs}
	rectilinear := true
	var ends []Point
	for _, s := range segs {
		rectilinear = rectilinear && (s.Horizontal() || s.Vertical())
		ends = append(ends, s.A, s.B)
	}
	if rectilinear {
		got := tr.PathLengths(from, to)
		for k, p := range to {
			if want := refPathLength(tr, from, p); got[k] != want {
				t.Fatalf("PathLengths(%v)[%d] to %v = %d, reference %d (segs %v)", from, k, p, got[k], want, segs)
			}
		}
	}
	for _, pins := range [][]Point{nil, to, ends, {from}} {
		want, ok := refConnectedOK(tr, pins)
		if !ok {
			// The reference panics only when every pin lies on a tree
			// without wire; the view reports whether they coincide.
			want = true
			for _, p := range pins {
				want = want && p == pins[0]
			}
		}
		if got := tr.Connected(pins); got != want {
			t.Fatalf("Connected(%v) = %v, reference %v (segs %v)", pins, got, want, segs)
		}
	}
}

func FuzzTreeQueries(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		segs, from, to := decodeTreeQuery(data)
		checkTreeQueries(t, segs, from, to)
	})
}

func TestTreeQueriesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 5000; trial++ {
		data := make([]byte, 1+3*(1+rng.Intn(12)))
		rng.Read(data)
		segs, from, to := decodeTreeQuery(data)
		checkTreeQueries(t, segs, from, to)
	}
	for trial := 0; trial < 1000; trial++ {
		tr, pts := randomSpanTree(rng, 2+rng.Intn(8))
		checkTreeQueries(t, tr.Segs, pts[0], pts)
	}
}

func TestTreeQueriesAllocs(t *testing.T) {
	// The arena is held, not pooled: the race detector drops pooled
	// arenas at random.
	tr, pins := randomSpanTree(rand.New(rand.NewSource(5)), 8)
	a := new(Arena)
	a.pathLengths(tr.Segs, pins[0], pins)
	if n := testing.AllocsPerRun(50, func() { a.connected(tr.Segs, pins) }); n != 0 {
		t.Errorf("Connected allocates %v times per call on a warm arena, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { a.pathLengths(tr.Segs, pins[0], pins) }); n != 1 {
		t.Errorf("PathLengths allocates %v times per call on a warm arena, want 1 (its result)", n)
	}
}

func TestArenaCountersAdvance(t *testing.T) {
	g0, _ := ArenaCounters()
	a := GetArena()
	PutArena(a)
	g1, f1 := ArenaCounters()
	if g1 <= g0 {
		t.Fatalf("gets did not advance: %d -> %d", g0, g1)
	}
	if f1 > g1 {
		t.Fatalf("fresh %d exceeds gets %d", f1, g1)
	}
}

func TestPackKeyRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("packRun accepted an out-of-range coordinate")
		}
	}()
	packRun(false, 1<<30, 0, 1)
}

func BenchmarkArenaKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	segs := randSegs(rng, 12)
	b.Run("canon", func(b *testing.B) {
		b.ReportAllocs()
		a := GetArena()
		defer PutArena(a)
		for i := 0; i < b.N; i++ {
			a.Canon(segs)
		}
	})
	b.Run("bends", func(b *testing.B) {
		b.ReportAllocs()
		a := GetArena()
		defer PutArena(a)
		for i := 0; i < b.N; i++ {
			a.Bends(segs)
		}
	})
	b.Run("wirelength", func(b *testing.B) {
		b.ReportAllocs()
		a := GetArena()
		defer PutArena(a)
		for i := 0; i < b.N; i++ {
			a.WireLength(segs)
		}
	})
	tr, pins := randomSpanTree(rng, 8)
	b.Run("connected", func(b *testing.B) {
		b.ReportAllocs()
		a := GetArena()
		defer PutArena(a)
		for i := 0; i < b.N; i++ {
			a.connected(tr.Segs, pins)
		}
	})
	b.Run("pathlengths", func(b *testing.B) {
		b.ReportAllocs()
		a := GetArena()
		defer PutArena(a)
		for i := 0; i < b.N; i++ {
			a.pathLengths(tr.Segs, pins[0], pins)
		}
	})
}
