package geom

import "slices"

// This file holds the index-based view of a canonical tree behind
// Tree.Connected and Tree.PathLengths. The view numbers the distinct
// endpoints of the canonical segments in sorted order and records every
// segment as a pair of node indices; path lengths add a CSR adjacency over
// those indices. All of it lives in arena scratch, so a warm arena answers
// connectivity without allocating and path lengths with only their result
// slice. The view is built on Canon, so it takes the same coordinate range
// as the arena kernels: [-2^30, 2^30), and a panic outside it.

// connected reports whether the segments form a single connected component
// that touches every one of the given pins. Without any wire (no segment of
// nonzero length) they are connected iff all pins coincide.
func (a *Arena) connected(segs []Seg, pins []Point) bool {
	if len(segs) > 0 {
		t := Tree{Segs: segs}
		for _, p := range pins {
			if !t.OnTree(p) {
				return false
			}
		}
	}
	if a.index(a.Canon(segs)) == 0 {
		for _, p := range pins {
			if p != pins[0] {
				return false
			}
		}
		return true
	}
	// Union-find over the view: connected iff the edges leave one root.
	parent := resize(a.work, len(a.nodes))
	a.work = parent
	for i := range parent {
		parent[i] = int32(i)
	}
	comps := len(parent)
	for i := 0; i < len(a.ends); i += 2 {
		u, v := root(parent, a.ends[i]), root(parent, a.ends[i+1])
		if u != v {
			parent[u] = v
			comps--
		}
	}
	return comps == 1
}

// pathLengths returns, for every point of to, the length of the path along
// the segments from from to it — the shortest one where overlapping
// segments close a cycle. An entry is -1 when either point is off the
// segments or they do not connect the two; a point is at distance 0 from
// itself when it lies on the segments or there are none. One traversal from
// from answers every target. The result is the only allocation.
func (a *Arena) pathLengths(segs []Seg, from Point, to []Point) []int {
	out := make([]int, len(to))
	t := Tree{Segs: segs}
	onTree := t.OnTree(from)
	if onTree {
		// Cutting the canonical segments at the query points makes them
		// nodes; the extra degree-2 nodes leave every path length
		// unchanged.
		a.query = append(append(a.query[:0], from), to...)
		a.index(a.SplitAt(a.Canon(segs), a.query))
		a.distances(a.node(from))
	}
	for k, p := range to {
		out[k] = -1
		switch {
		case p == from:
			if onTree || len(segs) == 0 {
				out[k] = 0
			}
		case onTree && t.OnTree(p):
			if i := a.node(p); i >= 0 {
				out[k] = a.dist[i]
			}
		}
	}
	return out
}

// index builds the view of segs: a.nodes receives their distinct endpoints,
// sorted, and a.ends the node indices of each segment's A and B. It returns
// the node count.
func (a *Arena) index(segs []Seg) int {
	eps := a.eps[:0]
	for i, s := range segs {
		eps = append(eps, endpoint{s.A, int32(2 * i)}, endpoint{s.B, int32(2*i + 1)})
	}
	slices.SortFunc(eps, func(x, y endpoint) int { return x.p.Compare(y.p) })
	a.eps = eps
	ends := resize(a.ends, len(eps))
	nodes := a.nodes[:0]
	for i, e := range eps {
		if i == 0 || e.p != eps[i-1].p {
			nodes = append(nodes, e.p)
		}
		ends[e.slot] = int32(len(nodes) - 1)
	}
	a.nodes, a.ends = nodes, ends
	return len(nodes)
}

// endpoint is one segment end awaiting its node index, which goes to
// ends[slot].
type endpoint struct {
	p    Point
	slot int32
}

// node returns the view index of p, or -1 when p is not a node.
func (a *Arena) node(p Point) int32 {
	i, ok := slices.BinarySearchFunc(a.nodes, p, Point.Compare)
	if !ok {
		return -1
	}
	return int32(i)
}

// distances fills a.dist with the path length from node src to every node
// of the view, -1 for the nodes src does not reach (all of them when src is
// -1). It is a label-correcting search with a FIFO queue: on a tree every
// node is settled once, and where overlapping segments close a cycle a node
// is requeued until its shortest distance holds.
func (a *Arena) distances(src int32) {
	n := len(a.nodes)
	// CSR adjacency: the neighbours of u are adj[off[u]:off[u+1]].
	off := resize(a.off, n+1)
	clear(off)
	for _, e := range a.ends {
		off[e+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	adj := resize(a.adj, len(a.ends))
	for i := 0; i < len(a.ends); i += 2 {
		u, v := a.ends[i], a.ends[i+1]
		adj[off[u]], adj[off[v]] = v, u
		off[u]++
		off[v]++
	}
	// Filling advanced every off[u] to the start of u+1; shift them back.
	copy(off[1:], off[:n])
	off[0] = 0

	dist := resize(a.dist, n)
	for i := range dist {
		dist[i] = -1
	}
	inq := resize(a.inq, n)
	clear(inq)
	queue := resize(a.work, n)
	a.off, a.adj, a.dist, a.inq, a.work = off, adj, dist, inq, queue
	if src < 0 {
		return
	}
	dist[src], queue[0], inq[src] = 0, src, true
	for head, size := 0, 1; size > 0; {
		u := queue[head]
		head, size = (head+1)%n, size-1
		inq[u] = false
		for _, v := range adj[off[u]:off[u+1]] {
			d := dist[u] + Dist(a.nodes[u], a.nodes[v])
			if dist[v] < 0 || d < dist[v] {
				dist[v] = d
				if !inq[v] {
					queue[(head+size)%n], inq[v] = v, true
					size++
				}
			}
		}
	}
}

func interior(s Seg, p Point) bool { return p != s.A && p != s.B && s.Contains(p) }

// root returns the union-find root of x, halving the path on the way.
func root(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}
