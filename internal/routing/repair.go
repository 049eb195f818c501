package routing

import "overcast/internal/graph"

// RepairSubtreesInto incrementally repairs a stored Dijkstra row in place —
// the Ramalingam–Reps-style subtree rebuild behind overlay.BatchRunner's
// third per-row classification outcome. dist/parent must hold the exact
// output of a previous ShortestPathsInto(g, src, dOld, ...) and roots the
// nodes whose stored parent edge has been mutated since (the children below
// the touched tree edges). The call invalidates only the union S of the
// stored subtrees rooted at those nodes and resettles S alone: each S node is
// seeded with the best offer its intact (non-S) neighbors would deliver in a
// fresh run, the heap holds only S nodes, and relaxations out of S pops are
// gated to unsettled S targets — so the whole repair costs
// O(|S| log |S| + Σ_{v∈S} deg(v)) instead of resuming over the frontier. It
// returns the nodes of S appended to out (for the caller's metrics) and
// ok=false when the repair bailed — S larger than two thirds of the graph's
// nodes (a full refill is cheaper and the caller must run one), or a
// defensive invariant miss — in which case dist/parent may be partially
// overwritten and MUST be refilled from scratch.
//
// Bit-identity contract: when (a) every mutation since the stored fill was a
// monotone growth (graph.LengthStore.MonotoneSince), (b) roots cover every
// touched stored-tree edge, and (c) every length is strictly positive
// (graph.LengthStore.AllPositive) and scale-separated from the row's
// distances (the caller's overlay certificate — see overlay's scaleSafe), the
// repaired dist/parent arrays are bitwise identical to a fresh
// ShortestPathsInto under d — including the deterministic (key, id) heap
// tie-breaks — and the pop sequence equals the full run's pop sequence
// restricted to S. The argument, in three steps:
//
//  1. Untouched rows outside S are already exact. For any w not in S, the
//     stored winning path to w avoids every touched edge, so its length is
//     unchanged and still optimal (growths never shorten a competitor). The
//     stored parent also re-wins the tie-break replay: in the fresh run every
//     competing offer arrives no earlier than before (its subpath length only
//     grew) with the same edge id, so the stored offer still arrives first at
//     an equal-or-better key. Offers from S pops into non-S targets are
//     discarded without scanning: dist[v] + d[e] >= dist[w] by the triangle
//     inequality over final distances, and the fresh run's strict `<`
//     relaxation discards exactly those offers too.
//  2. Per-node frontier precompute reproduces the intact side of the offer
//     race. In the fresh run, w's final parent is the first-arriving offer at
//     the final key; offers arrive ordered by the offerer's pop position
//     (dist, id), then by scan position within the offerer's adjacency list —
//     and scan position is ascending edge id, identically ordered in both
//     endpoints' CSR lists. Minimizing (key, offerer dist, offerer id, scan
//     position) over w's intact neighbors therefore selects exactly the
//     frontier offer that wins the fresh race among intact offerers. Offers
//     out of S pops replay live in true pop order; when such an offer ties
//     the pending precomputed offer at the final key, it wins iff its offerer
//     pops earlier in the fresh interleaving — (dist[v], v) < (dist[u*], u*)
//     — which the resume loop's replacement branch checks explicitly. Once
//     any S-origin offer lands, later equal offers arrive later in the fresh
//     order too and are discarded as usual.
//  3. Strictly positive, scale-separated lengths force equal-key
//     determinism. Every settled node's winning parent pops at a strictly
//     smaller key, so by the time the first key-k node pops, every key-k node
//     is already in-heap with its final key — in the full run and in the
//     resumed run alike — and the (key, id) heap order pops them in identical
//     ascending-id order; restricted to S the two sequences coincide. With a
//     zero-length (or sub-ulp) edge a key-k node could be discovered only
//     *by* another key-k pop, and the two runs could interleave those pops
//     differently, flipping tie-broken parents. The caller certifies
//     separation or falls back to a full refill.
func (sc *DijkstraScratch) RepairSubtreesInto(g *graph.Graph, src graph.NodeID, d graph.Lengths, dist []float64, parent []graph.EdgeID, roots []graph.NodeID, out []graph.NodeID) (repaired []graph.NodeID, ok bool) {
	n := g.NumNodes()
	if len(dist) != n || len(parent) != n {
		panic("routing: RepairSubtreesInto slice size mismatch")
	}
	const inf = 1e308
	out = out[:0]
	if len(roots) == 0 {
		return out, true
	}
	if cap(sc.mark) < n {
		sc.mark = make([]uint32, n)
		sc.pend = make([]uint32, n)
		sc.markGen = 0
	}
	sc.markGen++
	if sc.markGen == 0 { // wrapped: stale marks could alias the new generation
		for i := range sc.mark {
			sc.mark[i] = 0
			sc.pend[i] = 0
		}
		sc.markGen = 1
	}
	gen := sc.markGen
	mark, pend := sc.mark[:n], sc.pend[:n]
	// Collect S = the union of stored subtrees below the dirty roots, reading
	// the stored tree through the CSR: w is a child of v iff w's stored parent
	// edge leads back to v. out doubles as the BFS queue and the returned node
	// list; the walk costs O(Σ_{v∈S} deg(v)), never a full-graph pass.
	for _, root := range roots {
		if root == src || parent[root] < 0 || mark[root] == gen {
			continue
		}
		mark[root] = gen
		out = append(out, root)
	}
	// Size bail: past this the three S-edge passes below (walk, precompute,
	// relax) cost about a refill's single full-edge pass, and the caller's
	// refill is cheaper. Checked inside the walk so an oversized region stops
	// paying for its own discovery; deterministic either way (the threshold
	// depends only on the row content and the roots, never on scheduling).
	limit := 2 * n / 3
	for head := 0; head < len(out); head++ {
		if len(out) > limit {
			return out, false
		}
		v := out[head]
		ids, tos := g.Neighbors(v)
		for k, id := range ids {
			// w hangs below v exactly when w's stored parent edge is this
			// very slot's edge — an id compare, no edge-endpoint loads.
			if w := tos[k]; parent[w] == id && mark[w] != gen {
				mark[w] = gen
				out = append(out, w)
			}
		}
	}
	if len(out) > limit {
		return out, false
	}
	// Invalidate S, then seed each S node with the winning intact-frontier
	// offer — key, then offerer pop position (dist, id), then scan position
	// (ascending edge id, the order this loop visits w's parallel edges in).
	for _, v := range out {
		dist[v] = inf
		parent[v] = -1
	}
	h := sc.heap
	h.Reset()
	for _, w := range out {
		best := inf
		bestEdge := graph.EdgeID(-1)
		bestDu := 0.0
		bestU := graph.NodeID(0)
		ids, tos := g.Neighbors(w)
		for k, id := range ids {
			u := tos[k]
			if mark[u] == gen {
				continue
			}
			du := dist[u]
			if du >= inf {
				continue
			}
			nd := du + d[id]
			if nd < best || (bestEdge >= 0 && nd == best &&
				(du < bestDu || (du == bestDu && u < bestU))) {
				best, bestEdge, bestDu, bestU = nd, id, du, u
			}
		}
		if bestEdge >= 0 {
			dist[w] = best
			parent[w] = bestEdge
			pend[w] = gen
			h.Push(w, best)
		}
	}
	// Resume over S only. The relaxation body is ShortestPathsInto's with two
	// S-specific gates: non-S targets are skipped outright (step 1 above
	// proves those offers always lose), and an equal-key offer into a node
	// still carrying its pending precomputed offer replays the fresh run's
	// arrival race against that offer's frontier node (step 2).
	for h.Len() > 0 {
		v, dv := h.Pop()
		// Unmark on settle: offers into settled S nodes lose exactly like
		// offers into non-S nodes (their distance is final), so dropping the
		// mark lets the gate below reject both without touching float state.
		mark[v] = 0
		pend[v] = 0
		if sc.OnPop != nil {
			sc.OnPop(v)
		}
		ids, tos := g.Neighbors(v)
		for k, id := range ids {
			w := tos[k]
			if mark[w] != gen {
				continue
			}
			nd := dv + d[id]
			if dw := dist[w]; nd < dw {
				dist[w] = nd
				parent[w] = id
				pend[w] = 0
				if dw == inf {
					h.Push(w, nd)
				} else {
					h.DecreaseKey(w, nd)
				}
			} else if nd == dist[w] && pend[w] == gen {
				u := g.Edges[parent[w]].Other(w)
				if dv < dist[u] || (dv == dist[u] && v < u) {
					parent[w] = id
					pend[w] = 0
				}
			}
		}
	}
	for _, v := range out {
		if dist[v] >= inf {
			// A subtree node ended unreachable: only possible when an input
			// precondition was violated (e.g. an infinite length). Hand the
			// row back for a full refill rather than serve it.
			return out, false
		}
	}
	return out, true
}
