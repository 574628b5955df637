package workloads

import (
	"fmt"

	"hpmp/internal/kernel"
)

// The GAP benchmark suite (§8.3): six graph kernels over a Kronecker
// (graph500-style) synthetic graph in CSR form. The paper runs scale-20
// Kron; we default to a smaller scale (documented substitution) — the
// kernels, graph generator, and CSR layout follow the GAP reference
// semantics.

// Graph is a CSR graph in simulated memory.
type Graph struct {
	N      int
	rowPtr *U32Array // N+1
	colIdx *U32Array // M
}

// GenKronecker builds a Kronecker graph with 2^scale vertices and
// edgeFactor edges per vertex (undirected: each edge stored both ways),
// using the graph500 R-MAT parameters (A=0.57, B=0.19, C=0.19).
func GenKronecker(e *kernel.Env, scale, edgeFactor int, seed uint64) *Graph {
	n := 1 << scale
	mDirected := n * edgeFactor
	r := newRNG(seed)

	// Generate edges host-side (the generator is not the benchmark), then
	// place the CSR into simulated memory.
	type edge struct{ u, v uint32 }
	edges := make([]edge, 0, mDirected*2)
	for i := 0; i < mDirected; i++ {
		var u, v int
		for bit := 0; bit < scale; bit++ {
			p := r.next() % 100
			// Quadrant probabilities: A=57, B=19, C=19, D=5.
			switch {
			case p < 57:
				// (0,0)
			case p < 76:
				v |= 1 << bit
			case p < 95:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u == v {
			continue
		}
		edges = append(edges, edge{uint32(u), uint32(v)}, edge{uint32(v), uint32(u)})
	}
	// Count degrees, build CSR.
	deg := make([]int, n)
	for _, ed := range edges {
		deg[ed.u]++
	}
	rowHost := make([]uint32, n+1)
	for i := 0; i < n; i++ {
		rowHost[i+1] = rowHost[i] + uint32(deg[i])
	}
	colHost := make([]uint32, len(edges))
	cursor := make([]uint32, n)
	copy(cursor, rowHost[:n])
	for _, ed := range edges {
		colHost[cursor[ed.u]] = ed.v
		cursor[ed.u]++
	}

	g := &Graph{N: n}
	g.rowPtr = NewU32Array(e, n+1)
	g.colIdx = NewU32Array(e, len(edges))
	g.rowPtr.SetRange(0, rowHost)
	g.colIdx.SetRange(0, colHost)
	return g
}

// Neighbors iterates the out-neighbours of u through simulated memory.
func (g *Graph) Neighbors(u int, f func(v int)) {
	lo := g.rowPtr.Get(u)
	hi := g.rowPtr.Get(u + 1)
	for i := lo; i < hi; i++ {
		f(int(g.colIdx.Get(int(i))))
	}
}

// Degree returns the out-degree of u.
func (g *Graph) Degree(u int) int {
	lo := g.rowPtr.Get(u)
	return int(g.rowPtr.Get(u+1) - lo)
}

// GAPWorkload wraps one kernel with its graph parameters.
type GAPWorkload struct {
	Kernel     string // "bfs", "cc", "pr", "sssp", "tc", "bc"
	Scale      int
	EdgeFactor int
}

// GAPSuite returns the six kernels at the default scaled size.
func GAPSuite(scale int) []Workload {
	if scale == 0 {
		scale = 10
	}
	kernels := []string{"bc", "bfs", "cc", "pr", "sssp", "tc"}
	out := make([]Workload, len(kernels))
	for i, k := range kernels {
		out[i] = &GAPWorkload{Kernel: k, Scale: scale, EdgeFactor: 8}
	}
	return out
}

// Name implements Workload.
func (w *GAPWorkload) Name() string { return w.Kernel + "-kron" }

// Run implements Workload.
func (w *GAPWorkload) Run(e *kernel.Env) (uint64, error) {
	g := GenKronecker(e, w.Scale, w.EdgeFactor, 0x5eed)
	var sum uint64
	switch w.Kernel {
	case "bfs":
		sum = bfs(e, g, 1)
	case "cc":
		sum = connectedComponents(e, g)
	case "pr":
		sum = pageRank(e, g, 10)
	case "sssp":
		sum = sssp(e, g, 1)
	case "tc":
		sum = triangleCount(g)
	case "bc":
		sum = betweenness(e, g, 2)
	default:
		return 0, fmt.Errorf("gap: unknown kernel %q", w.Kernel)
	}
	return sum, e.Err()
}

// bfs runs a top-down breadth-first search and returns the sum of depths.
func bfs(e *kernel.Env, g *Graph, src int) uint64 {
	depth := NewU32Array(e, g.N)
	depth.Fill(0xffffffff)
	queue := NewU32Array(e, g.N)
	head, tail := 0, 0
	depth.Set(src, 0)
	queue.Set(tail, uint32(src))
	tail++
	for head < tail {
		u := int(queue.Get(head))
		head++
		du := depth.Get(u)
		g.Neighbors(u, func(v int) {
			if depth.Get(v) == 0xffffffff {
				depth.Set(v, du+1)
				queue.Set(tail, uint32(v))
				tail++
			}
		})
	}
	var sum uint64
	for i := 0; i < g.N; i++ {
		if d := depth.Get(i); d != 0xffffffff {
			sum += uint64(d)
		}
	}
	return sum
}

// connectedComponents is the Shiloach-Vishkin style label-propagation CC.
func connectedComponents(e *kernel.Env, g *Graph) uint64 {
	comp := NewU32Array(e, g.N)
	ident := make([]uint32, g.N)
	for i := range ident {
		ident[i] = uint32(i)
	}
	comp.SetRange(0, ident)
	for changed := true; changed; {
		changed = false
		for u := 0; u < g.N; u++ {
			cu := comp.Get(u)
			g.Neighbors(u, func(v int) {
				if cv := comp.Get(v); cv < cu {
					cu = cv
					changed = true
					comp.Set(u, cu)
				}
			})
		}
		// Pointer jumping.
		for u := 0; u < g.N; u++ {
			cu := comp.Get(u)
			if ccu := comp.Get(int(cu)); ccu != cu {
				comp.Set(u, ccu)
			}
		}
	}
	// Count distinct roots.
	var roots uint64
	for u := 0; u < g.N; u++ {
		if int(comp.Get(u)) == u {
			roots++
		}
	}
	return roots
}

// pageRank runs iters power iterations with fixed-point ranks (Q32.32).
func pageRank(e *kernel.Env, g *Graph, iters int) uint64 {
	const one = uint64(1) << 32
	rank := NewU64Array(e, g.N)
	next := NewU64Array(e, g.N)
	init := one / uint64(g.N)
	for i := 0; i < g.N; i++ {
		rank.Set(i, init)
	}
	base := (one * 15 / 100) / uint64(g.N)
	for it := 0; it < iters; it++ {
		for i := 0; i < g.N; i++ {
			next.Set(i, base)
		}
		for u := 0; u < g.N; u++ {
			ru := rank.Get(u)
			d := g.Degree(u)
			if d == 0 {
				continue
			}
			share := (ru * 85 / 100) / uint64(d)
			g.Neighbors(u, func(v int) {
				next.Set(v, next.Get(v)+share)
			})
		}
		rank, next = next, rank
	}
	var sum uint64
	for i := 0; i < g.N; i++ {
		sum += rank.Get(i)
	}
	return sum
}

// sssp runs Bellman-Ford-flavoured single-source shortest paths with
// deterministic per-edge weights derived from the endpoints.
func sssp(e *kernel.Env, g *Graph, src int) uint64 {
	const inf = uint32(0x3fffffff)
	dist := NewU32Array(e, g.N)
	for i := 0; i < g.N; i++ {
		dist.Set(i, inf)
	}
	dist.Set(src, 0)
	weight := func(u, v int) uint32 { return uint32((u*31+v*17)%15) + 1 }
	for round := 0; round < 16; round++ {
		changed := false
		for u := 0; u < g.N; u++ {
			du := dist.Get(u)
			if du == inf {
				continue
			}
			g.Neighbors(u, func(v int) {
				if nd := du + weight(u, v); nd < dist.Get(v) {
					changed = true
					dist.Set(v, nd)
				}
			})
		}
		if !changed {
			break
		}
	}
	var sum uint64
	for i := 0; i < g.N; i++ {
		if d := dist.Get(i); d != inf {
			sum += uint64(d)
		}
	}
	return sum
}

// triangleCount counts triangles with the ordered-intersection method on a
// bounded per-vertex neighbour window (keeps simulation time sane on
// high-degree Kron vertices).
func triangleCount(g *Graph) uint64 {
	const window = 32
	var triangles uint64
	for u := 0; u < g.N; u++ {
		var nu []int
		g.Neighbors(u, func(v int) {
			if v > u && len(nu) < window {
				nu = append(nu, v)
			}
		})
		for _, v := range nu {
			// Intersect N(v) with nu (both > u ordering avoids recounts).
			g.Neighbors(v, func(w int) {
				if w <= v {
					return
				}
				for _, x := range nu {
					if x == w {
						triangles++
						break
					}
				}
			})
		}
	}
	return triangles
}

// betweenness runs Brandes' algorithm from nSources sampled sources
// (GAP's bc also samples) with unit weights.
func betweenness(e *kernel.Env, g *Graph, nSources int) uint64 {
	centrality := NewU64Array(e, g.N)
	sigma := NewU64Array(e, g.N)
	depth := NewU32Array(e, g.N)
	order := NewU32Array(e, g.N)
	delta := NewU64Array(e, g.N)
	for s := 0; s < nSources; s++ {
		src := (s*37 + 1) % g.N
		for i := 0; i < g.N; i++ {
			sigma.Set(i, 0)
			depth.Set(i, 0xffffffff)
			delta.Set(i, 0)
		}
		sigma.Set(src, 1)
		depth.Set(src, 0)
		head, tail := 0, 0
		order.Set(tail, uint32(src))
		tail++
		for head < tail {
			u := int(order.Get(head))
			head++
			du := depth.Get(u)
			su := sigma.Get(u)
			g.Neighbors(u, func(v int) {
				dv := depth.Get(v)
				if dv == 0xffffffff {
					depth.Set(v, du+1)
					order.Set(tail, uint32(v))
					tail++
					dv = du + 1
				}
				if dv == du+1 {
					sigma.Set(v, sigma.Get(v)+su)
				}
			})
		}
		// Dependency accumulation in reverse BFS order (Q32.32 fixed
		// point).
		for i := tail - 1; i > 0; i-- {
			w := int(order.Get(i))
			dw := depth.Get(w)
			sw := sigma.Get(w)
			deltaW := delta.Get(w)
			if sw == 0 {
				continue
			}
			g.Neighbors(w, func(v int) {
				if depth.Get(v)+1 != dw {
					return
				}
				sv := sigma.Get(v)
				dl := delta.Get(v)
				contrib := (sv << 16) / sw * ((1 << 16) + (deltaW >> 16))
				delta.Set(v, dl+contrib>>16<<16)
			})
			centrality.Set(w, centrality.Get(w)+deltaW)
		}
	}
	var sum uint64
	for i := 0; i < g.N; i++ {
		sum += centrality.Get(i) >> 16
	}
	return sum
}
