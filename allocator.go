package overcast

import (
	"fmt"

	"overcast/internal/core"
	"overcast/internal/graph"
	"overcast/internal/overlay"
	"overcast/internal/routing"
	"overcast/internal/underlay"
)

// SessionID is an opaque handle for a session admitted by an Allocator. The
// zero value is invalid; handles are never reused, so a departed session's
// handle keeps failing cleanly instead of silently addressing a later
// arrival, as an arrival index would.
type SessionID struct {
	n uint64 // 1 + arrival slot; 0 = invalid
}

// Valid reports whether the handle was issued by an Allocator.
func (id SessionID) Valid() bool { return id.n != 0 }

// String renders the handle for logs.
func (id SessionID) String() string {
	if id.n == 0 {
		return "session(invalid)"
	}
	return fmt.Sprintf("session(%d)", id.n-1)
}

// PlaneMode selects how the solvers share per-member shortest-path work
// across sessions: PlaneSubtree (the default) or PlaneOff. Outputs are
// bit-identical in both modes. It implements flag.Value with the spellings
// subtree and off.
type PlaneMode = overlay.PlaneMode

// The plane modes; see overlay.PlaneMode for what each one does.
const (
	// PlaneSubtree keeps a persistent shortest-path plane; a row whose
	// stored paths were touched is repaired over the affected subtrees when
	// fewer than n/2 length updates (n the node count) hit the ledger since
	// the row was filled, and refilled otherwise.
	PlaneSubtree = overlay.PlaneSubtree
	// PlaneOff runs every session's own Dijkstras (the reference mode).
	PlaneOff = overlay.PlaneOff
)

// AllocatorOptions configures an Allocator. The zero value is usable: hop- or
// delay-based fixed IP routing, mu=30, epsilon=0.1, GOMAXPROCS workers,
// PlaneSubtree, unbounded repair budget.
type AllocatorOptions struct {
	// Mu is the online step size (Table VI); 0 means 30, negative is an
	// error. Values near the expected per-session rate work well.
	Mu float64
	// Epsilon is the FPTAS error parameter for Snapshot/Rebalance
	// allocations, in (0, 0.5]; 0 means 0.1.
	Epsilon float64
	// Routing selects fixed IP routes or arbitrary (dynamic shortest-path)
	// routing for every session's trees.
	Routing Routing
	// Workers sets the solver worker-pool size (0 = GOMAXPROCS). Outputs
	// are bit-identical for every worker count.
	Workers int
	// Plane selects the shared SSSP plane mode (the zero value is
	// PlaneSubtree). Outputs are bit-identical in every mode; an undeclared
	// value is rejected by NewAllocator.
	Plane PlaneMode
	// RepairPhaseBudget bounds the warm repair work per Snapshot/Rebalance,
	// in session-phases: 0 = unbounded (a warm refresh always completes),
	// positive = fall back to a cold re-solve when exceeded, negative =
	// always re-solve cold (the baseline warm-start is measured against).
	RepairPhaseBudget int
}

// OverlayTree is an immutable view of one overlay tree with its allocated
// rate.
//
// Aliasing contract (mirroring overlay.BatchResult): the slices returned by
// Pairs and Members are owned by the OverlayTree and must not be modified;
// they stay valid (and bitwise intact) indefinitely. Successive calls may
// return the same backing arrays — callers needing a private copy must make
// one.
type OverlayTree struct {
	pairs   [][2]int
	members []int
	rate    float64
	hops    int
}

// Pairs returns the overlay edges as (i,j) member-index pairs with i<j,
// sorted lexicographically. The slice must not be modified.
func (t OverlayTree) Pairs() [][2]int { return t.pairs }

// Members returns the session's member nodes; pair indices index this slice,
// and Members()[0] is the source. The slice must not be modified.
func (t OverlayTree) Members() []int { return t.members }

// Rate returns the flow carried by this tree.
func (t OverlayTree) Rate() float64 { return t.rate }

// PhysicalHops returns the total physical link traversals Σ_e n_e(t).
func (t OverlayTree) PhysicalHops() int { return t.hops }

// Placement is the epoch-stamped outcome of a Join or Rebalance for one
// session: the tree(s) it is assigned and its current feasible rate.
type Placement struct {
	// Session identifies the placed session.
	Session SessionID
	// Epoch is the allocator epoch the placement was computed at; a
	// placement with a lower epoch than another is stale relative to it.
	Epoch uint64
	// Tree is the session's primary tree: the online placement tree at
	// Join, the highest-rate tree of the refreshed allocation at Rebalance.
	Tree OverlayTree
	// Trees lists every tree carrying flow for the session (just Tree at
	// Join; the refreshed multi-tree set at Rebalance).
	Trees []OverlayTree
	// Rate is the session's feasible rate under the placement.
	Rate float64
}

// PlaneStats holds the shared-SSSP-plane counters of the solver stack, so
// daemons and library users can read cache effectiveness without internal
// imports; see overlay.PlaneStats for each counter and ratio.
type PlaneStats = overlay.PlaneStats

// AllocatorStats counts an Allocator's work.
type AllocatorStats struct {
	// Joins and Leaves count successfully processed events.
	Joins, Leaves int
	// ColdSolves counts full MaxConcurrentFlow re-solves behind
	// Snapshot/Rebalance; WarmRefreshes counts refreshes served by
	// warm-start incremental repair instead.
	ColdSolves, WarmRefreshes int
	// WarmFallbacks counts refreshes that attempted warm repair and fell
	// back to a cold solve mid-way (RepairPhaseBudget exhausted, or every
	// anchored session departed). Scheduled re-anchors are not fallbacks.
	WarmFallbacks int
	// RepairPhases counts session-phases routed by warm repair.
	RepairPhases int
	// MSTOps counts spanning-tree computations across joins, anchors and
	// repair (the paper's running-time unit). A cold solve spends k of them,
	// one oracle round, on its demand scale.
	MSTOps int
	// AnchorCertifiedRatio is the last cold solve's certified ratio: its
	// fair share λ over the least weak-duality upper bound on the optimum
	// λ* its phase loop met, so λ ≥ AnchorCertifiedRatio·λ*. A solve that
	// certifies below (1−ε)³ reruns once in the paper's demand regime. 0
	// before the first cold solve.
	AnchorCertifiedRatio float64
	// UnderlayEvents counts underlay fault mutations (link failure/recovery,
	// capacity drift) applied through Fault. Each one latches a cold re-solve
	// for the next Snapshot/Rebalance.
	UnderlayEvents int
	// Plane holds the shared-SSSP-plane counters of the runner that serves
	// the cold solves and warm repair.
	Plane PlaneStats
}

// Allocator is the v2 session-handle surface over the online + warm-start
// allocation stack. Join admits a session immediately with a single online
// tree (Table VI — cheap, never reroutes incumbents); Snapshot and Rebalance
// maintain a competing ε-feasible MaxConcurrentFlow allocation that is
// re-solved incrementally under churn: joins are caught up to the anchored
// fair share and departures are rolled back exactly, with a bounded number
// of repair phases restoring the Garg–Könemann stop criterion, falling back
// to a cold solve only when the repair budget is exhausted or an underlay
// fault changed a capacity.
//
// An Allocator is not safe for concurrent use. Close releases the repair
// worker pool when the allocator is no longer needed.
type Allocator struct {
	net     *Network
	opts    AllocatorOptions
	weights graph.Lengths
	online  *core.Online
	warm    *core.Warm
	faults  *underlay.State // lazily created on the first Fault
	nextID  int
	demands []float64
	epoch   uint64
	closed  bool
}

// NewAllocator creates an allocator over net.
func NewAllocator(net *Network, opts AllocatorOptions) (*Allocator, error) {
	if net == nil {
		return nil, fmt.Errorf("overcast: nil network")
	}
	if opts.Mu < 0 {
		return nil, fmt.Errorf("overcast: online step size mu=%v must be positive", opts.Mu)
	}
	if opts.Mu == 0 {
		opts.Mu = 30
	}
	if opts.Epsilon == 0 {
		opts.Epsilon = 0.1
	}
	if opts.Epsilon < 0 || opts.Epsilon > 0.5 {
		return nil, fmt.Errorf("overcast: epsilon %v outside (0, 0.5]", opts.Epsilon)
	}
	if err := opts.Plane.Valid(); err != nil {
		return nil, fmt.Errorf("overcast: %w", err)
	}
	online, err := core.NewOnline(net.inner.Graph, opts.Mu)
	if err != nil {
		return nil, err
	}
	var weights graph.Lengths
	if len(net.inner.Pos) == net.inner.Graph.NumNodes() && len(net.inner.Pos) > 0 {
		weights = net.inner.LinkDelays()
	}
	warm, err := core.NewWarm(net.inner.Graph, core.WarmOptions{
		Epsilon:           opts.Epsilon,
		SolverOptions:     core.SolverOptions{Workers: opts.Workers, Plane: opts.Plane},
		RepairPhaseBudget: opts.RepairPhaseBudget,
	})
	if err != nil {
		return nil, err
	}
	return &Allocator{net: net, opts: opts, weights: weights, online: online, warm: warm}, nil
}

// slot resolves a handle to its arrival slot, without liveness checks.
func (a *Allocator) slot(id SessionID) (int, error) {
	if id.n == 0 || int(id.n) > a.nextID {
		return -1, fmt.Errorf("overcast: %v was not issued by this allocator", id)
	}
	return int(id.n) - 1, nil
}

// Join admits a session: it is assigned a single overlay tree immediately
// and permanently under the online algorithm (incumbents are never
// rerouted), and becomes part of the next Snapshot/Rebalance allocation.
// The returned placement carries the session's handle, the online tree, and
// the session's current feasible rate under the online population. A member
// outside the network, a repeated member, fewer than two members or a
// non-positive demand is an error and admits nothing.
func (a *Allocator) Join(s Session) (Placement, error) {
	if a.closed {
		return Placement{}, fmt.Errorf("overcast: allocator is closed")
	}
	g := a.net.inner.Graph
	for _, m := range s.Members {
		if m < 0 || m >= g.NumNodes() {
			return Placement{}, fmt.Errorf("overcast: member %d outside graph", m)
		}
	}
	os, err := overlay.NewSession(a.nextID, s.Members, s.Demand)
	if err != nil {
		return Placement{}, err
	}
	var oracle overlay.TreeOracle
	if a.opts.Routing == RoutingArbitrary {
		// The dynamic oracle routes under the allocator's lengths; building a
		// fixed route table for it would be wasted Dijkstra work per join.
		oracle, err = overlay.NewArbitraryOracle(g, os)
	} else {
		var rt *routing.IPRoutes
		if a.weights != nil {
			rt = routing.NewWeightedIPRoutes(g, os.Members, a.weights)
		} else {
			rt = routing.NewIPRoutes(g, os.Members)
		}
		oracle, err = overlay.NewFixedOracle(g, rt, os)
	}
	if err != nil {
		return Placement{}, err
	}
	tree, err := a.online.Join(oracle)
	if err != nil {
		return Placement{}, err
	}
	if err := a.warm.Join(os, oracle); err != nil {
		return Placement{}, err
	}
	slot := a.nextID
	a.nextID++
	a.demands = append(a.demands, s.Demand)
	a.epoch++
	id := SessionID{n: uint64(slot) + 1}
	rate, _ := a.SessionRate(id)
	ot := a.overlayTree(tree.Pairs, os.Members, rate, tree.TotalHops())
	return Placement{Session: id, Epoch: a.epoch, Tree: ot, Trees: []OverlayTree{ot}, Rate: rate}, nil
}

// overlayTree builds an immutable tree view with private copies.
func (a *Allocator) overlayTree(pairs [][2]int, members []graph.NodeID, rate float64, hops int) OverlayTree {
	p := make([][2]int, len(pairs))
	copy(p, pairs)
	m := make([]int, len(members))
	copy(m, members)
	return OverlayTree{pairs: p, members: m, rate: rate, hops: hops}
}

// Leave removes a session by handle: its online tree is torn down with the
// length inflation rolled back exactly, and the warm allocation releases
// (and later re-packs) its flow. Departed or foreign handles are errors.
func (a *Allocator) Leave(id SessionID) error {
	if a.closed {
		return fmt.Errorf("overcast: allocator is closed")
	}
	slot, err := a.slot(id)
	if err != nil {
		return err
	}
	if err := a.online.Leave(slot); err != nil {
		return err
	}
	if err := a.warm.Leave(slot); err != nil {
		return err
	}
	a.epoch++
	return nil
}

// SessionRate returns the feasible rate of the session under the current
// online population: demand divided by the session's maximum link
// congestion. Rates shrink as competing sessions join and recover when they
// leave. A departed or foreign handle is an error.
func (a *Allocator) SessionRate(id SessionID) (float64, error) {
	slot, err := a.slot(id)
	if err != nil {
		return 0, err
	}
	if !a.warm.Active(slot) {
		return 0, fmt.Errorf("overcast: %v has left", id)
	}
	if l := a.online.SessionMaxCongestion(slot); l > 0 {
		return a.demands[slot] / l, nil
	}
	return a.demands[slot], nil
}

// Snapshot returns the current ε-feasible max-min fair allocation over the
// active sessions (reindexed densely in arrival order), refreshing it
// incrementally first: warm-start catch-up and repair phases when the ledger
// allows, a cold re-solve otherwise. Calling Snapshot with no active
// sessions is an error.
func (a *Allocator) Snapshot() (*Allocation, error) {
	if a.closed {
		return nil, fmt.Errorf("overcast: allocator is closed")
	}
	sol, err := a.warm.Snapshot()
	if err != nil {
		return nil, err
	}
	return &Allocation{sol: sol}, nil
}

// Rebalance refreshes the fair allocation (exactly like Snapshot) and
// returns one epoch-stamped placement per active session, in arrival order:
// the refreshed multi-tree set, the highest-rate tree as the primary, and
// the session's fair rate.
func (a *Allocator) Rebalance() ([]Placement, error) {
	if a.closed {
		return nil, fmt.Errorf("overcast: allocator is closed")
	}
	sol, err := a.warm.Snapshot()
	if err != nil {
		return nil, err
	}
	a.epoch++
	out := make([]Placement, 0, len(sol.Sessions))
	dense := 0
	for slot := 0; slot < a.nextID; slot++ {
		if !a.warm.Active(slot) {
			continue
		}
		sess := sol.Sessions[dense]
		trees := make([]OverlayTree, 0, len(sol.Flows[dense]))
		best := 0
		for _, tf := range sol.Flows[dense] {
			if tf.Rate <= 0 {
				continue
			}
			trees = append(trees, a.overlayTree(tf.Tree.Pairs, sess.Members, tf.Rate, tf.Tree.TotalHops()))
			if tf.Rate > trees[best].rate {
				best = len(trees) - 1
			}
		}
		p := Placement{
			Session: SessionID{n: uint64(slot) + 1},
			Epoch:   a.epoch,
			Rate:    sol.SessionRate(dense),
		}
		if len(trees) > 0 {
			p.Tree = trees[best]
			p.Trees = trees
		}
		out = append(out, p)
		dense++
	}
	return out, nil
}

// FaultKind selects the underlay mutation a LinkFault applies.
type FaultKind int

const (
	// FaultLinkDown fails a link: its capacity collapses to a vanishing
	// fraction of the healthy value (it stays routable at effectively zero
	// rate, keeping dual prices finite). Overlapping failures nest: a link
	// downed twice needs two recoveries.
	FaultLinkDown FaultKind = iota
	// FaultLinkUp recovers a previously failed link, restoring the capacity
	// implied by its healthy base and accumulated drift. Recovering a healthy
	// link is a no-op.
	FaultLinkUp
	// FaultDrift multiplies the link's healthy capacity by Factor (> 0),
	// modelling available-bandwidth drift. Drift composes with failures: it
	// adjusts the capacity the next recovery restores.
	FaultDrift
)

// String names the kind for logs.
func (k FaultKind) String() string {
	switch k {
	case FaultLinkDown:
		return "link-down"
	case FaultLinkUp:
		return "link-up"
	case FaultDrift:
		return "drift"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// LinkFault is one underlay fault event addressed by physical link endpoints.
type LinkFault struct {
	// From and To name the link's endpoint nodes (order-insensitive).
	From, To int
	// Kind selects the mutation; Factor is only read for FaultDrift.
	Kind   FaultKind
	Factor float64
}

// Fault applies an underlay fault to the network and returns the link's
// resulting capacity. An effective change latches the next
// Snapshot/Rebalance onto a cold re-solve under the new capacities — fault
// arithmetic invalidates the warm anchor and its length ledger. A redundant
// event (recovering a healthy link) still returns the current capacity but
// mutates nothing. Unknown links are errors.
func (a *Allocator) Fault(f LinkFault) (float64, error) {
	if a.closed {
		return 0, fmt.Errorf("overcast: allocator is closed")
	}
	g := a.net.inner.Graph
	e, ok := g.EdgeBetween(f.From, f.To)
	if !ok {
		return 0, fmt.Errorf("overcast: no link between nodes %d and %d", f.From, f.To)
	}
	ev := underlay.Event{Edge: e}
	switch f.Kind {
	case FaultLinkDown:
		ev.Kind = underlay.LinkDown
	case FaultLinkUp:
		ev.Kind = underlay.LinkUp
	case FaultDrift:
		if f.Factor <= 0 {
			return 0, fmt.Errorf("overcast: drift factor %v must be positive", f.Factor)
		}
		ev.Kind, ev.Factor = underlay.Drift, f.Factor
	default:
		return 0, fmt.Errorf("overcast: unknown fault kind %d", int(f.Kind))
	}
	if a.faults == nil {
		a.faults = underlay.NewState(g)
	}
	if _, changed := a.faults.Apply(ev); !changed {
		return g.Edges[e].Capacity, nil
	}
	if err := a.warm.Fault(e); err != nil {
		return 0, err
	}
	a.epoch++
	return g.Edges[e].Capacity, nil
}

// OnlineAllocation produces the exactly feasible allocation implied by the
// online trees alone (each active session, densely indexed in arrival
// order, scaled by its own maximum congestion) — the Table VI outcome, for
// comparing the online placement against Snapshot's re-solved allocation.
func (a *Allocator) OnlineAllocation() (*Allocation, error) {
	sol, err := a.online.Finalize()
	if err != nil {
		return nil, err
	}
	return &Allocation{sol: sol}, nil
}

// Admitted returns the number of sessions ever admitted (including departed
// ones; see Active).
func (a *Allocator) Admitted() int { return a.nextID }

// Active returns the number of admitted sessions that have not left.
func (a *Allocator) Active() int { return a.online.ActiveSessions() }

// IsActive reports whether the handle names a session that has not left.
func (a *Allocator) IsActive(id SessionID) bool {
	slot, err := a.slot(id)
	return err == nil && a.warm.Active(slot)
}

// Epoch returns the allocator epoch: it advances on every Join, Leave and
// Rebalance, and stamps the placements they return.
func (a *Allocator) Epoch() uint64 { return a.epoch }

// MaxCongestion returns the current maximum link congestion if every active
// session sent at its full demand along its online tree.
func (a *Allocator) MaxCongestion() float64 { return a.online.MaxCongestion() }

// Stats returns a snapshot of the allocator's work counters.
func (a *Allocator) Stats() AllocatorStats {
	ws := a.warm.Stats()
	return AllocatorStats{
		Joins: ws.Joins, Leaves: ws.Leaves,
		ColdSolves: ws.ColdSolves, WarmRefreshes: ws.WarmRefreshes,
		WarmFallbacks:        ws.WarmFallbacks,
		RepairPhases:         ws.RepairPhases,
		MSTOps:               ws.MSTOps + a.online.MSTOps(),
		AnchorCertifiedRatio: ws.AnchorCertified,
		UnderlayEvents:       ws.UnderlayEvents,
		Plane:                ws.Plane,
	}
}

// Close releases the allocator's worker pool. The allocator must not be
// used afterwards; Close is idempotent.
func (a *Allocator) Close() {
	a.warm.Close()
	a.closed = true
}
