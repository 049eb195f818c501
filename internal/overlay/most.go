package overlay

import (
	"fmt"
	"sync"

	"overcast/internal/graph"
	"overcast/internal/routing"
)

// TreeOracle produces the "minimum overlay spanning tree" of one session
// under a given physical edge-length function d_e — the separation oracle at
// the heart of every algorithm in the paper (MaxFlow line 5,
// MaxConcurrentFlow line 7, Online-MinCongestion line 4).
type TreeOracle interface {
	// Session returns the session the oracle serves.
	Session() *Session
	// MinTree returns a minimum-total-length overlay spanning tree under d.
	MinTree(d graph.Lengths) (*Tree, error)
	// MaxRouteHops returns U, an upper bound on the length (in hops) of any
	// unicast route the oracle may use; it parametrizes the FPTAS's delta.
	MaxRouteHops() int
}

// ScratchOracle is implemented by oracles that can run MinTree against
// caller-pooled scratch state, avoiding per-call allocation. Both built-in
// oracles implement it; the solvers thread one Scratch per worker through
// their iteration loops.
type ScratchOracle interface {
	TreeOracle
	// MinTreeWith is MinTree reusing sc's buffers. The returned tree does
	// not alias sc and stays valid across further calls.
	MinTreeWith(d graph.Lengths, sc *Scratch) (*Tree, error)
}

// MinTreeWith evaluates o's minimum tree under d, reusing sc when the oracle
// supports scratch state (falling back to plain MinTree otherwise). sc may
// serve many oracles over the same graph, one call at a time.
func MinTreeWith(o TreeOracle, d graph.Lengths, sc *Scratch) (*Tree, error) {
	if so, ok := o.(ScratchOracle); ok && sc != nil {
		return so.MinTreeWith(d, sc)
	}
	return o.MinTree(d)
}

// PlaneOracle is implemented by oracles whose per-call SSSP work can be
// served from a shared Plane: the oracle names the Dijkstra sources MinTree
// would run, and can assemble its tree from plane rows computed elsewhere.
// ArbitraryOracle implements it (its entire per-call Dijkstra cost is
// shareable); FixedOracle does not (its routes are resolved at construction,
// so there is nothing to share per call).
type PlaneOracle interface {
	ScratchOracle
	// PlaneSources returns the Dijkstra source nodes a MinTree call runs —
	// the session's members. The slice is oracle-owned; do not mutate.
	PlaneSources() []graph.NodeID
	// MinTreeFromPlane is MinTreeWith reading each member's SSSP row from pl
	// instead of computing it. Every source from PlaneSources must be staged
	// and filled on pl under the same d; the result is then bitwise identical
	// to MinTreeWith's (identical Dijkstras, identical assembly).
	MinTreeFromPlane(d graph.Lengths, pl *Plane, sc *Scratch) (*Tree, error)
}

// primComplete runs Prim's algorithm over the complete graph on n vertices
// with the given symmetric weight function, rooted at vertex 0, returning
// the tree's vertex-pair edges. O(n^2), which is optimal for dense graphs.
// Ties break toward smaller vertex ids for determinism.
func primComplete(n int, weight func(i, j int) float64) [][2]int {
	const inf = 1e308
	inTree := make([]bool, n)
	best := make([]float64, n)
	bestFrom := make([]int, n)
	for i := range best {
		best[i] = inf
		bestFrom[i] = -1
	}
	inTree[0] = true
	for j := 1; j < n; j++ {
		best[j] = weight(0, j)
		bestFrom[j] = 0
	}
	pairs := make([][2]int, 0, n-1)
	for added := 1; added < n; added++ {
		pick := -1
		for j := 0; j < n; j++ {
			if !inTree[j] && (pick < 0 || best[j] < best[pick]) {
				pick = j
			}
		}
		inTree[pick] = true
		pairs = append(pairs, [2]int{bestFrom[pick], pick})
		for j := 0; j < n; j++ {
			if !inTree[j] {
				if w := weight(pick, j); w < best[j] {
					best[j] = w
					bestFrom[j] = pick
				}
			}
		}
	}
	return pairs
}

// FixedOracle is the Sec. II oracle: every member pair communicates over its
// fixed IP route. Routes are resolved once at construction; per-iteration
// work is only the re-weighting of the overlay complete graph under the
// current d_e.
//
// A fixed-route tree is fully determined by its overlay pair set, and the
// solvers select the same few trees over and over, so the oracle memoizes
// its trees by pair set (sessions of up to memoMaxMembers members, at most
// memoCap trees per oracle). A memo hit returns the shared, read-only tree
// without allocating. A FixedOracle is safe for concurrent use.
type FixedOracle struct {
	g       *graph.Graph
	session *Session
	// routes[i][j] is the fixed route between members i and j (i < j).
	routes  [][]routing.Path
	maxHops int

	memoMu sync.Mutex
	memo   map[uint64]*Tree // pair-set bitmask (see pairMask) -> tree
}

// memoMaxMembers is the largest session whose n(n-1)/2 member pairs fit the
// uint64 memo key, one bit per pair.
const memoMaxMembers = 11

// memoCap bounds the trees one FixedOracle keeps; once full, further trees
// are built per call as if unmemoized.
const memoCap = 4096

// pairMask sets bit j(j-1)/2+i for every overlay pair {i, j}, i < j.
func pairMask(pairs [][2]int) uint64 {
	var m uint64
	for _, p := range pairs {
		i, j := p[0], p[1]
		if i > j {
			i, j = j, i
		}
		m |= 1 << uint(j*(j-1)/2+i)
	}
	return m
}

// NewFixedOracle resolves all pairwise IP routes of the session from rt.
func NewFixedOracle(g *graph.Graph, rt *routing.IPRoutes, s *Session) (*FixedOracle, error) {
	n := s.Size()
	o := &FixedOracle{g: g, session: s, routes: make([][]routing.Path, n), memo: make(map[uint64]*Tree)}
	for i := 0; i < n; i++ {
		o.routes[i] = make([]routing.Path, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p, err := rt.Route(s.Members[i], s.Members[j])
			if err != nil {
				return nil, fmt.Errorf("overlay: session %d members %d,%d: %w", s.ID, s.Members[i], s.Members[j], err)
			}
			o.routes[i][j] = p
			o.routes[j][i] = p.Reverse()
			if p.Hops() > o.maxHops {
				o.maxHops = p.Hops()
			}
		}
	}
	return o, nil
}

// Session implements TreeOracle.
func (o *FixedOracle) Session() *Session { return o.session }

// MaxRouteHops implements TreeOracle.
func (o *FixedOracle) MaxRouteHops() int { return o.maxHops }

// Route returns the fixed route between member indices i and j.
func (o *FixedOracle) Route(i, j int) routing.Path { return o.routes[i][j] }

// MinTree implements TreeOracle: Prim over the overlay complete graph where
// the weight of overlay edge (i,j) is the d-length of the fixed route.
func (o *FixedOracle) MinTree(d graph.Lengths) (*Tree, error) {
	return o.MinTreeWith(d, NewScratch(o.g))
}

// MinTreeWith implements ScratchOracle.
func (o *FixedOracle) MinTreeWith(d graph.Lengths, sc *Scratch) (*Tree, error) {
	n := o.session.Size()
	// Precompute pairwise route lengths under d.
	w := sc.weights(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l := d.PathLength(o.routes[i][j].Edges)
			w[i*n+j], w[j*n+i] = l, l
		}
	}
	raw := primInto(sc, n, func(i, j int) float64 { return w[i*n+j] })
	if n > memoMaxMembers {
		return o.newTree(sc, raw), nil
	}
	key := pairMask(raw)
	o.memoMu.Lock()
	defer o.memoMu.Unlock()
	if t, ok := o.memo[key]; ok {
		return t, nil
	}
	t := o.newTree(sc, raw)
	t.KeyHash() // cache the digest before the tree is shared
	if len(o.memo) < memoCap {
		o.memo[key] = t
	}
	return t, nil
}

// newTree assembles the tree of Prim's raw member pairs.
func (o *FixedOracle) newTree(sc *Scratch, raw [][2]int) *Tree {
	// Normalize pairs to i<j up front: o.routes[i][j] is already oriented
	// i -> j, so no route reversal is needed.
	pairs := make([][2]int, len(raw))
	routes := make([]routing.Path, len(raw))
	for k, p := range raw {
		i, j := p[0], p[1]
		if i > j {
			i, j = j, i
		}
		pairs[k] = [2]int{i, j}
		routes[k] = o.routes[i][j]
	}
	return newSortedTree(sc, o.session.ID, pairs, routes)
}

// ArbitraryOracle is the Sec. V oracle: overlay edges follow the *shortest*
// unicast path under the current d_e, recomputed every call with one
// Dijkstra per member (Sec. V-B).
type ArbitraryOracle struct {
	g       *graph.Graph
	session *Session
	maxHops int
}

// NewArbitraryOracle builds the dynamic-routing oracle for s over g. maxHops
// (U) is |V|-1: a shortest path under positive lengths is simple, and no
// tighter static bound is sound — the hop diameter of the *fixed* IP routes
// does not bound shortest paths under the solver's adversarially inflated
// length functions, which can legitimately take long detours around loaded
// links. (Earlier revisions accepted an IPRoutes table here and silently
// discarded it; the oracle needs no route table at all.)
func NewArbitraryOracle(g *graph.Graph, s *Session) (*ArbitraryOracle, error) {
	return &ArbitraryOracle{g: g, session: s, maxHops: g.NumNodes() - 1}, nil
}

// Session implements TreeOracle.
func (o *ArbitraryOracle) Session() *Session { return o.session }

// MaxRouteHops implements TreeOracle.
func (o *ArbitraryOracle) MaxRouteHops() int { return o.maxHops }

// MinTree implements TreeOracle: one Dijkstra per member under d gives all
// overlay edge weights and routes; Prim then picks the tree. The route for
// overlay pair (i,j) is read from the Dijkstra tree rooted at the
// smaller-indexed member, so the choice is deterministic.
func (o *ArbitraryOracle) MinTree(d graph.Lengths) (*Tree, error) {
	return o.MinTreeWith(d, NewScratch(o.g))
}

// MinTreeWith implements ScratchOracle.
func (o *ArbitraryOracle) MinTreeWith(d graph.Lengths, sc *Scratch) (*Tree, error) {
	n := o.session.Size()
	dists, parents := sc.memberTrees(n)
	sp := sc.dijkstra()
	for i := 0; i < n; i++ {
		sp.ShortestPathsInto(o.g, o.session.Members[i], d, dists[i], parents[i])
	}
	return o.treeFromMemberRows(sc, dists, parents)
}

// PlaneSources implements PlaneOracle: the Dijkstra sources are the members.
func (o *ArbitraryOracle) PlaneSources() []graph.NodeID { return o.session.Members }

// MinTreeFromPlane implements PlaneOracle: per-member SSSP rows are read from
// pl (falling back to MinTreeWith if a member was not staged, which a correct
// batch driver never triggers). Identical rows make the result bitwise
// identical to MinTreeWith under the same d.
func (o *ArbitraryOracle) MinTreeFromPlane(d graph.Lengths, pl *Plane, sc *Scratch) (*Tree, error) {
	n := o.session.Size()
	dists, parents := sc.memberRows(n)
	for i, m := range o.session.Members {
		dd, pp, ok := pl.Lookup(m)
		if !ok {
			return o.MinTreeWith(d, sc)
		}
		dists[i], parents[i] = dd, pp
	}
	return o.treeFromMemberRows(sc, dists, parents)
}

// treeFromMemberRows assembles the minimum overlay tree from per-member SSSP
// rows (dists[i]/parents[i] rooted at Members[i]), whether scratch-computed
// or plane-borrowed: Prim over the overlay complete graph, then route
// extraction from the smaller member's Dijkstra tree.
func (o *ArbitraryOracle) treeFromMemberRows(sc *Scratch, dists [][]float64, parents [][]graph.EdgeID) (*Tree, error) {
	n := o.session.Size()
	weight := func(i, j int) float64 {
		if i > j {
			i, j = j, i
		}
		return dists[i][o.session.Members[j]]
	}
	raw := primInto(sc, n, weight)
	// Normalize pairs to i<j up front; the route is extracted from the
	// smaller member's Dijkstra tree, already oriented i -> j.
	pairs := make([][2]int, len(raw))
	routes := make([]routing.Path, len(raw))
	for k, p := range raw {
		i, j := p[0], p[1]
		if i > j {
			i, j = j, i
		}
		r, err := routing.DijkstraRoute(o.g, o.session.Members[i], o.session.Members[j], parents[i])
		if err != nil {
			return nil, fmt.Errorf("overlay: session %d dynamic route %d-%d: %w", o.session.ID, i, j, err)
		}
		pairs[k] = [2]int{i, j}
		routes[k] = r
	}
	return newSortedTree(sc, o.session.ID, pairs, routes), nil
}
