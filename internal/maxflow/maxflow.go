// Package maxflow implements Dinic's maximum-flow algorithm on directed
// networks with float64 capacities. No solver uses it: it is the exact
// reference behind internal/core's two-member cross-check, where a
// two-member session's arbitrary-routing MaxFlow must match the s–t
// maximum flow.
package maxflow

import "fmt"

// arc is one directed residual arc; arcs are stored in pairs so that a^1 is
// the reverse arc of a.
type arc struct {
	to  int
	cap float64
}

// Network is a directed flow network under construction/solution. Nodes are
// 0..n-1.
type Network struct {
	n    int
	arcs []arc
	head [][]int // head[v] lists arc indices leaving v
	// iteration state
	level []int
	iter  []int
}

// NewNetwork creates an empty flow network on n nodes.
func NewNetwork(n int) *Network {
	if n < 1 {
		panic("maxflow: network needs at least one node")
	}
	return &Network{
		n:     n,
		head:  make([][]int, n),
		level: make([]int, n),
		iter:  make([]int, n),
	}
}

// NumNodes returns the node count.
func (f *Network) NumNodes() int { return f.n }

// AddArc adds a directed arc u->v with the given capacity and returns its
// id, usable with Flow after solving. A zero-capacity reverse arc is added
// automatically.
func (f *Network) AddArc(u, v int, capacity float64) int {
	if u < 0 || u >= f.n || v < 0 || v >= f.n {
		panic(fmt.Sprintf("maxflow: arc (%d,%d) out of range n=%d", u, v, f.n))
	}
	if capacity < 0 {
		panic("maxflow: negative capacity")
	}
	id := len(f.arcs)
	f.arcs = append(f.arcs, arc{to: v, cap: capacity})
	f.arcs = append(f.arcs, arc{to: u, cap: 0})
	f.head[u] = append(f.head[u], id)
	f.head[v] = append(f.head[v], id^1)
	return id
}

// AddEdge adds an undirected edge as two opposing arcs of equal capacity and
// returns the id of the u->v arc.
func (f *Network) AddEdge(u, v int, capacity float64) int {
	id := len(f.arcs)
	f.arcs = append(f.arcs, arc{to: v, cap: capacity})
	f.arcs = append(f.arcs, arc{to: u, cap: capacity})
	f.head[u] = append(f.head[u], id)
	f.head[v] = append(f.head[v], id^1)
	return id
}

// Flow returns the flow currently pushed through the arc returned by AddArc,
// i.e. the capacity consumed from it.
func (f *Network) Flow(arcID int, original float64) float64 {
	return original - f.arcs[arcID].cap
}

// Residual returns the remaining capacity of the given arc id.
func (f *Network) Residual(arcID int) float64 { return f.arcs[arcID].cap }

const eps = 1e-12

func (f *Network) bfs(s, t int) bool {
	for i := range f.level {
		f.level[i] = -1
	}
	queue := make([]int, 0, f.n)
	queue = append(queue, s)
	f.level[s] = 0
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, id := range f.head[v] {
			a := f.arcs[id]
			if a.cap > eps && f.level[a.to] < 0 {
				f.level[a.to] = f.level[v] + 1
				queue = append(queue, a.to)
			}
		}
	}
	return f.level[t] >= 0
}

func (f *Network) dfs(v, t int, pushed float64) float64 {
	if v == t {
		return pushed
	}
	for ; f.iter[v] < len(f.head[v]); f.iter[v]++ {
		id := f.head[v][f.iter[v]]
		a := &f.arcs[id]
		if a.cap > eps && f.level[a.to] == f.level[v]+1 {
			amount := pushed
			if a.cap < amount {
				amount = a.cap
			}
			if got := f.dfs(a.to, t, amount); got > eps {
				a.cap -= got
				f.arcs[id^1].cap += got
				return got
			}
		}
	}
	return 0
}

// MaxFlow computes the maximum s-t flow, mutating the residual network.
// Calling it again continues from the current residual state (useful for
// incremental capacity probing). It panics if s == t.
func (f *Network) MaxFlow(s, t int) float64 {
	if s == t {
		panic("maxflow: source equals sink")
	}
	total := 0.0
	for f.bfs(s, t) {
		for i := range f.iter {
			f.iter[i] = 0
		}
		for {
			pushed := f.dfs(s, t, 1e308)
			if pushed <= eps {
				break
			}
			total += pushed
		}
	}
	return total
}

// MinCutSide returns the set of nodes reachable from s in the residual
// network after MaxFlow has been run; (side, complement) is a minimum cut.
func (f *Network) MinCutSide(s int) []bool {
	side := make([]bool, f.n)
	stack := []int{s}
	side[s] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range f.head[v] {
			a := f.arcs[id]
			if a.cap > eps && !side[a.to] {
				side[a.to] = true
				stack = append(stack, a.to)
			}
		}
	}
	return side
}
