package core

import (
	"fmt"

	"overcast/internal/graph"
	"overcast/internal/overlay"
)

// Online implements Online-MinCongestion (Table VI): sessions arrive one at
// a time; each is assigned a single overlay tree — the minimum overlay
// spanning tree under the current length function — immediately and
// permanently. Lengths grow multiplicatively with step size mu, steering
// later arrivals away from loaded links. Theorem 4 bounds the resulting
// congestion by O(log|E|)·OPT.
//
// Existing sessions are never rerouted; on Finalize, each session's rate is
// scaled by its own maximum congestion l^i_max (measured after all
// arrivals), which yields an exactly feasible solution.
type Online struct {
	g  *graph.Graph
	mu float64
	// d is the versioned length ledger: joins Bump the used edges, leaves
	// Set the affected edges back to base and replay the surviving factors,
	// so the journal records exactly the length movement of every event.
	d  *graph.LengthStore
	le []float64 // congestion per edge at full demands

	// Leave replays the survivors' length updates from sessions and trees.
	sessions []*overlay.Session
	trees    []*overlay.Tree
	active   []bool
	mstOps   int
	nActive  int
	scratch  *overlay.Scratch // reused across Join calls

	// Leave scratch: edge membership bitmap plus the affected-edge list,
	// reused across calls so departures allocate nothing and the rebuild
	// iterates edges in a deterministic order (the map this replaces had
	// randomized iteration order — harmless for values, since the rebuild
	// is order-independent, but needless work per call).
	affected     []bool
	affectedList []graph.EdgeID
}

// onlineBump returns the congestion contribution n_e·dem/c_e of a tree that
// crosses an edge of capacity ce n times at demand dem, and the matching
// length update factor 1+mu·frac. Join and Leave both call it, so a replayed
// factor is bitwise the one Join applied.
func onlineBump(mu float64, n int, dem, ce float64) (frac, factor float64) {
	frac = float64(n) * dem / ce
	return frac, 1 + mu*frac
}

// NewOnline creates an online allocator over g with step size mu (the
// paper sweeps mu in 10..200; values near the optimal concurrent rate work
// best).
func NewOnline(g *graph.Graph, mu float64) (*Online, error) {
	if mu <= 0 {
		return nil, fmt.Errorf("core: online step size mu=%v must be positive", mu)
	}
	vals := make(graph.Lengths, g.NumEdges())
	for e := range vals {
		vals[e] = 1 / g.Edges[e].Capacity
	}
	return &Online{g: g, mu: mu, d: graph.NewLengthStoreFrom(vals), le: make([]float64, g.NumEdges()), scratch: overlay.NewScratch(g)}, nil
}

// Join admits a new session: its tree is chosen by the oracle under the
// current lengths, the session's full demand is routed, and edge lengths and
// congestions are updated (Table VI lines 4-7). The session keeps this tree
// forever.
func (o *Online) Join(oracle overlay.TreeOracle) (*overlay.Tree, error) {
	s := oracle.Session()
	t, err := overlay.MinTreeWith(oracle, o.d.Values(), o.scratch)
	if err != nil {
		return nil, fmt.Errorf("core: online join session %d: %w", s.ID, err)
	}
	o.mstOps++
	for _, use := range t.Use() {
		frac, factor := onlineBump(o.mu, use.Count, s.Demand, o.g.Edges[use.Edge].Capacity)
		o.d.Bump(use.Edge, factor)
		o.le[use.Edge] += frac
	}
	o.sessions = append(o.sessions, s)
	o.trees = append(o.trees, t)
	o.active = append(o.active, true)
	o.nActive++
	return t, nil
}

// Leave removes the idx-th admitted session (by arrival order): its tree is
// torn down, its congestion contributions are released, and its length
// inflation is rolled back exactly, so links it used become attractive to
// future arrivals again. Leaving twice or with a bad index is an error.
// Sessions admitted afterwards are unaffected (no rerouting — the online
// model never reroutes).
func (o *Online) Leave(idx int) error {
	if idx < 0 || idx >= len(o.sessions) {
		return fmt.Errorf("core: online leave: index %d out of range", idx)
	}
	if !o.active[idx] {
		return fmt.Errorf("core: online leave: session %d already left", idx)
	}
	o.active[idx] = false
	o.nActive--
	// Rebuild the affected edges' length and congestion from the surviving
	// sessions' trees and demands. Recomputing (instead of dividing the
	// factor back out) makes Leave bit-exact: the state equals what
	// replaying the remaining updates in arrival order would produce, so
	// deterministic tie-breaks in later MinTree calls are preserved.
	if o.affected == nil {
		o.affected = make([]bool, o.g.NumEdges())
	}
	o.affectedList = o.affectedList[:0]
	for _, use := range o.trees[idx].Use() {
		o.affected[use.Edge] = true
		o.affectedList = append(o.affectedList, use.Edge)
	}
	for _, e := range o.affectedList {
		o.d.Set(e, 1/o.g.Edges[e].Capacity)
		o.le[e] = 0
	}
	for j, t := range o.trees {
		if !o.active[j] {
			continue
		}
		for _, use := range t.Use() {
			if o.affected[use.Edge] {
				frac, factor := onlineBump(o.mu, use.Count, o.sessions[j].Demand, o.g.Edges[use.Edge].Capacity)
				o.d.Bump(use.Edge, factor)
				o.le[use.Edge] += frac
			}
		}
	}
	for _, e := range o.affectedList {
		o.affected[e] = false
	}
	return nil
}

// ActiveSessions returns the number of admitted sessions that have not
// left.
func (o *Online) ActiveSessions() int { return o.nActive }

// NumSessions returns the number of admitted sessions.
func (o *Online) NumSessions() int { return len(o.sessions) }

// MaxCongestion returns l_max at full demands over all admitted sessions.
func (o *Online) MaxCongestion() float64 {
	max := 0.0
	for _, l := range o.le {
		if l > max {
			max = l
		}
	}
	return max
}

// SessionMaxCongestion returns l^i_max for the idx-th admitted session: the
// maximum current congestion over the physical edges of its tree.
func (o *Online) SessionMaxCongestion(idx int) float64 {
	max := 0.0
	for _, use := range o.trees[idx].Use() {
		if l := o.le[use.Edge]; l > max {
			max = l
		}
	}
	return max
}

// MSTOps returns the number of spanning-tree computations performed.
func (o *Online) MSTOps() int { return o.mstOps }

// Tree returns the tree assigned to the idx-th admitted session.
func (o *Online) Tree(idx int) *overlay.Tree { return o.trees[idx] }

// Finalize produces the exactly feasible solution over the *active*
// sessions: session i carries dem(i)/l^i_max along its tree. Feasibility:
// the scaled congestion of edge e is sum_i contrib_i(e)/l^i_max
// <= sum_i contrib_i(e)/l_e = 1. Active sessions are reindexed densely in
// arrival order so the result is a standard Solution.
func (o *Online) Finalize() (*Solution, error) {
	if o.nActive == 0 {
		return nil, fmt.Errorf("core: online finalize with no active sessions")
	}
	sessions := make([]*overlay.Session, 0, o.nActive)
	flows := make([][]TreeFlow, 0, o.nActive)
	for idx, s := range o.sessions {
		if !o.active[idx] {
			continue
		}
		newID := len(sessions)
		rs := &overlay.Session{ID: newID, Members: s.Members, Demand: s.Demand}
		t := o.trees[idx]
		rt := overlay.NewTree(newID, t.Pairs, t.Routes)
		rate := s.Demand
		if l := o.SessionMaxCongestion(idx); l > 0 {
			rate /= l
		}
		sessions = append(sessions, rs)
		flows = append(flows, []TreeFlow{{Tree: rt, Rate: rate}})
	}
	sol := &Solution{G: o.g, Sessions: sessions, Flows: flows, MSTOps: o.mstOps}
	return sol, nil
}
