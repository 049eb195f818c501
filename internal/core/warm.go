package core

import (
	"errors"
	"fmt"
	"math"

	"overcast/internal/graph"
	"overcast/internal/overlay"
)

// This file implements the warm-start incremental re-solve under churn. A
// Warm allocator maintains an ε-feasible MaxConcurrentFlow allocation across
// a stream of session joins and leaves without re-running the FPTAS from
// cold on every event. The mechanism reuses the Garg–Könemann invariant that
// the phase loop already maintains:
//
//   - A cold anchor runs the MaxConcurrentFlow phase loop in place, over the
//     active slots' own oracles on the allocator's runner, with application
//     logging, and keeps its terminal gkState (length ledger, dual objective
//     D = Σ_e c_e·d_e, pre-scale raw flows and application logs; the loop
//     stops exactly when D ≥ 1) plus the final scaled demands, all indexed
//     by slot. Warm repair then routes through the same gkState.phase and
//     gkState.apply as the cold loop.
//   - A Join routes only the newcomer's fair share — demand_k times the
//     anchored raw-rate-per-demand ratio — under the live lengths, in
//     anchor-phase-sized chunks through a BatchRunner whose shared SSSP
//     plane and dirty-source repair absorb most of the Dijkstra work.
//   - A Leave rolls the departed session's length inflation back exactly —
//     the edges of its arena are Set to the anchor base and every surviving
//     session's logged applications are replayed onto them in slot order,
//     each factor recomputed by bumpFactor, bitwise the one originally
//     applied — and decrements D accordingly. The rollback typically drops
//     D below 1, so the allocation no longer satisfies the stop criterion;
//     the next Refresh routes full phases for all active sessions until
//     D ≥ 1 again, which is precisely the work a cold solve would have spent
//     re-packing the freed capacity. With a negative repair budget every
//     Refresh is cold, so a Leave skips the rollback.
//   - Snapshot densifies the active slots and rescales the raw flows by
//     1/maxCongestion — the identical final step of the cold solve — so a
//     snapshot taken right after the anchor is bit-identical to the cold
//     solution, and later snapshots stay exactly feasible by construction.
//   - A cold anchor runs no beta prestep: it takes its demand scale from
//     one oracle round that brackets the optimum, and checks the result
//     against a weak-duality bound read from the phase loop's own rounds,
//     rerunning once at the bracket's safe end when that certificate falls
//     short (see anchorSolve). Each anchor therefore costs the same k
//     oracle calls on its scale, whatever the churn or faults before it,
//     and Stats reports the last anchor's certified ratio.
//
// Falling back to cold is always sound (the warm state is simply discarded
// and re-anchored) and happens when the per-refresh repair budget is
// exhausted, when an underlay fault changed a capacity (Fault — the bump
// attribution refers to the old capacities), or when every anchored session
// has departed (the fair-share ratio is gone). The warm path is the ledger's
// only writer: a fault does not touch it, since nothing routes on it before
// the cold re-anchor replaces it. Additionally, once the repair work
// accumulated since the anchor exceeds what a cold solve would cost
// (≈ phases·k session-phases), the next refresh re-anchors voluntarily:
// each warm refresh perturbs the anchor's primal/dual balance by its churned
// demand share, and re-anchoring on this amortized schedule bounds both the
// compounded drift (the ε-quality of snapshots between anchors) and the
// total work at a constant factor of the cold baseline's — while refreshes
// stay ~k/(churned sessions) times cheaper than re-solving.

// WarmOptions configures a Warm allocator.
type WarmOptions struct {
	// Epsilon is the FPTAS error parameter, in (0, 0.5].
	Epsilon float64
	// SolverOptions configure the one runner that serves the anchors and warm
	// repair; Workers 0 means GOMAXPROCS. Outputs are bit-identical for
	// every value.
	SolverOptions
	// RepairPhaseBudget bounds the warm repair work per Refresh, counted in
	// session-phases (one session's demand routed through one phase). 0
	// means unbounded — a warm refresh always completes; positive values cap
	// it, falling back to a cold solve when exceeded; negative values
	// disable the warm path entirely (every Refresh is a cold solve — the
	// baseline the warm speedup is measured against).
	RepairPhaseBudget int
}

// WarmStats counts a Warm allocator's work.
type WarmStats struct {
	Joins, Leaves int
	// ColdSolves counts full MaxConcurrentFlow anchor solves (the first
	// Refresh is always one).
	ColdSolves int
	// WarmRefreshes counts Refresh calls served by incremental repair.
	WarmRefreshes int
	// WarmFallbacks counts refreshes that attempted the warm path and fell
	// back to a cold solve mid-repair (budget exhausted, or the anchored
	// fair-share level gone) — scheduled re-anchors and fault-latched colds
	// are not fallbacks. Admission control keys off this: a join whose probe
	// refresh could not be repaired within RepairPhaseBudget is rejectable.
	WarmFallbacks int
	// RepairPhases counts session-phases routed by warm repair.
	RepairPhases int
	// UnderlayEvents counts underlay fault mutations (link failure/recovery,
	// capacity drift) applied through Fault. Every one latches a cold
	// re-anchor: capacity changes invalidate the anchored dual objective
	// D = Σ_e c_e·d_e and the bump attribution regardless of whether the
	// mirrored length move was monotone.
	UnderlayEvents int
	// MSTOps counts spanning-tree computations across anchors and repair,
	// each anchor's k scale-setting oracle calls included.
	MSTOps int
	// AnchorCertified is the last cold anchor's certified ratio
	// (MCFResult.Certified): its concurrent ratio over the least
	// weak-duality bound on the optimum its phase loop met. 0 before the
	// first anchor.
	AnchorCertified float64
	// Plane holds the shared-SSSP-plane counters of the runner that serves
	// the anchors' phase loops and warm repair.
	Plane overlay.PlaneStats
}

// errWarmFallback signals that the warm path cannot (or may not) complete
// this refresh and the caller should re-anchor cold.
var errWarmFallback = errors.New("core: warm repair fell back to cold")

// Warm maintains an ε-feasible concurrent-flow allocation under churn.
// Sessions are identified by their arrival slot (0-based, never reused).
// Mutations (Join/Leave) are cheap bookkeeping plus exact length-ledger
// updates; Refresh/Snapshot bring the allocation back to the Garg–Könemann
// stop criterion incrementally. Not safe for concurrent use.
type Warm struct {
	g    *graph.Graph
	opts WarmOptions
	eps  float64

	sessions []*overlay.Session
	oracles  []overlay.TreeOracle
	active   []bool
	nActive  int

	runner *overlay.BatchRunner // lazily created; serves anchors and repair; oracle id == slot

	// Anchored state (gk == nil until the first cold solve); gk is indexed
	// by slot.
	gk       *gkState
	base     graph.Lengths // anchor epoch-0 lengths delta/c_e
	dem      []float64     // per slot: scaled per-phase demand
	demScale float64       // dem_i / demand_i at the anchor (uniform)
	phases   int           // anchor phase count (catch-up chunk granularity)

	pendingJoins []int // slots joined since the last refresh, ascending
	// pendingLeaveDem accumulates the demand of sessions rolled back since
	// the last refresh: survivors owe rebalance phases in proportion, so the
	// capacity a departure frees is actually re-packed (see warmRepair).
	pendingLeaveDem float64
	dirty           bool // allocation state changed since the last refresh
	forceCold       bool // an underlay fault changed a capacity; next refresh re-anchors
	repairSpent     int  // session-phases of warm repair since the anchor (drift proxy)

	stats WarmStats

	// Reused rollback scratch.
	affected     []bool
	affectedList []graph.EdgeID
}

// NewWarm creates a warm allocator over g. Joined sessions bring their own
// oracles, which every anchor and warm repair routes through, so the routing
// discipline is whatever the caller built them with.
func NewWarm(g *graph.Graph, opts WarmOptions) (*Warm, error) {
	if g == nil || g.NumEdges() == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	if opts.Epsilon <= 0 || opts.Epsilon > 0.5 {
		return nil, fmt.Errorf("core: warm allocator epsilon %v outside (0, 0.5]", opts.Epsilon)
	}
	return &Warm{g: g, opts: opts, eps: opts.Epsilon}, nil
}

// Join admits a session under the next arrival slot. s.ID must equal the
// slot (NumSlots() before the call); the oracle must be built over s. The
// allocation is not repaired here — Refresh or Snapshot folds the newcomer
// in (warm when anchored, as part of the first cold solve otherwise).
func (w *Warm) Join(s *overlay.Session, oracle overlay.TreeOracle) error {
	if s == nil || oracle == nil {
		return fmt.Errorf("core: warm join: nil session or oracle")
	}
	if s.ID != len(w.sessions) {
		return fmt.Errorf("core: warm join: session ID %d, want next slot %d", s.ID, len(w.sessions))
	}
	w.sessions = append(w.sessions, s)
	w.oracles = append(w.oracles, oracle)
	w.active = append(w.active, true)
	w.nActive++
	if w.runner != nil {
		w.runner.AddOracle(oracle)
	}
	if w.gk != nil {
		w.gk.raw = append(w.gk.raw, nil)
		w.gk.index = append(w.gk.index, nil)
		w.gk.logs = append(w.gk.logs, applyLog{})
		w.dem = append(w.dem, 0)
		w.pendingJoins = append(w.pendingJoins, s.ID)
	}
	w.dirty = true
	w.stats.Joins++
	return nil
}

// Leave removes the session in the given slot. Its length inflation is
// rolled back exactly (affected edges reset to the anchor base, surviving
// sessions' logged applications replayed in slot order — the same
// bit-exactness argument as Online.Leave), and the dual objective is
// decremented to match, so the next Refresh knows how much re-packing the
// departure freed up. With a negative RepairPhaseBudget the rollback is
// skipped: the next Refresh re-anchors cold and discards the ledger anyway.
func (w *Warm) Leave(slot int) error {
	if slot < 0 || slot >= len(w.sessions) {
		return fmt.Errorf("core: warm leave: slot %d out of range", slot)
	}
	if !w.active[slot] {
		return fmt.Errorf("core: warm leave: session %d already left", slot)
	}
	w.active[slot] = false
	w.nActive--
	w.stats.Leaves++
	w.dirty = true
	// A departed slot is never routed again: drop its oracle (route tables,
	// memoized trees) here and in the runner, so memory stays bounded by the
	// active sessions rather than by every session ever joined.
	w.oracles[slot] = nil
	if w.runner != nil {
		w.runner.Release(slot)
	}
	if w.gk == nil || w.opts.RepairPhaseBudget < 0 {
		// Unanchored, or every refresh re-anchors cold and discards the
		// ledger: there is nothing worth rolling back.
		return nil
	}
	// A slot that joined after the last refresh has no flow to roll back and
	// frees no packed capacity — its departure owes no repair at all.
	for i, p := range w.pendingJoins {
		if p == slot {
			w.pendingJoins = append(w.pendingJoins[:i], w.pendingJoins[i+1:]...)
			return nil
		}
	}
	// A fault already latched the cold re-anchor (capacities changed under
	// the recorded bumps): skip the rollback, the bump attribution is
	// untrustworthy and the ledger is about to be replaced.
	if w.forceCold {
		return nil
	}
	w.rollback(slot)
	w.pendingLeaveDem += w.sessions[slot].Demand
	return nil
}

// rollback undoes slot's length inflation exactly and releases its flows.
// The affected edges are those of slot's arena, in first-use order (the
// order its applications first touched them); every surviving session's
// applications are replayed onto them with factors recomputed by
// bumpFactor, bitwise the ones originally applied.
func (w *Warm) rollback(slot int) {
	gk := w.gk
	if len(gk.logs[slot].apps) == 0 && len(gk.raw[slot]) == 0 {
		return
	}
	if w.affected == nil {
		w.affected = make([]bool, w.g.NumEdges())
	}
	w.affectedList = w.affectedList[:0]
	for _, u := range gk.logs[slot].arena {
		if !w.affected[u.Edge] {
			w.affected[u.Edge] = true
			w.affectedList = append(w.affectedList, u.Edge)
		}
	}
	for _, e := range w.affectedList {
		gk.bigD -= w.g.Edges[e].Capacity * gk.d.At(e)
		gk.d.Set(e, w.base[e])
	}
	for j := range w.sessions {
		if !w.active[j] {
			continue
		}
		l := &gk.logs[j]
		for _, a := range l.apps {
			for _, u := range l.arena[a.off : a.off+a.n] {
				if w.affected[u.Edge] {
					gk.d.Bump(u.Edge, bumpFactor(w.eps, u.Count, a.rate, w.g.Edges[u.Edge].Capacity))
				}
			}
		}
	}
	for _, e := range w.affectedList {
		gk.bigD += w.g.Edges[e].Capacity * gk.d.At(e)
		w.affected[e] = false
	}
	gk.raw[slot] = nil
	gk.index[slot] = nil
	gk.logs[slot] = applyLog{}
	w.dem[slot] = 0
}

// Fault records an underlay capacity change on edge e; the caller has
// already rewritten the graph's capacity (see internal/underlay.State). It
// counts the event and latches the next Refresh cold, whichever way the
// capacity moved: the anchored dual objective D = Σ_e c_e·d_e and the
// per-session bump attribution were computed under the old capacities, so
// incremental repair arithmetic is no longer trustworthy. The ledger is left
// alone: nothing routes on it before the cold anchor replaces it, and the
// runner's plane resets with the new ledger.
func (w *Warm) Fault(e graph.EdgeID) error {
	if e < 0 || e >= graph.EdgeID(w.g.NumEdges()) {
		return fmt.Errorf("core: warm fault: edge %d out of range", e)
	}
	w.stats.UnderlayEvents++
	w.forceCold = true
	w.dirty = true
	return nil
}

// NumSlots returns the number of sessions ever admitted.
func (w *Warm) NumSlots() int { return len(w.sessions) }

// Active reports whether slot holds a session that has not left.
func (w *Warm) Active(slot int) bool {
	return slot >= 0 && slot < len(w.active) && w.active[slot]
}

// ActiveSessions returns the number of sessions that have not left.
func (w *Warm) ActiveSessions() int { return w.nActive }

// Stats returns a snapshot of the allocator's counters.
func (w *Warm) Stats() WarmStats {
	s := w.stats
	if w.runner != nil {
		s.Plane.Merge(w.runner.Metrics())
	}
	return s
}

// Refresh brings the allocation up to date with all joins and leaves since
// the last refresh: warm catch-up plus re-grow phases when possible, a cold
// anchor solve otherwise. It is a no-op when nothing changed.
func (w *Warm) Refresh() error {
	if w.nActive == 0 {
		return fmt.Errorf("core: warm refresh with no active sessions")
	}
	if !w.dirty && w.gk != nil {
		return nil
	}
	if w.gk == nil || w.opts.RepairPhaseBudget < 0 || w.forceCold {
		return w.cold()
	}
	// Amortized re-anchor: once warm repair has cost a couple of cold solves'
	// worth of session-phases (a cold solve costs ≈ phases·k), spend the next
	// refresh re-anchoring — this bounds compounded drift from successive
	// incremental repairs while keeping total work within a constant factor
	// of the cold baseline.
	if w.repairSpent > warmReanchorFactor*w.phases*w.nActive {
		return w.cold()
	}
	err := w.warmRepair()
	// Fold the repair's oracle calls in before a fallback replaces the state.
	w.stats.MSTOps += w.gk.ops
	w.gk.ops = 0
	if err != nil {
		if errors.Is(err, errWarmFallback) {
			w.stats.WarmFallbacks++
			return w.cold()
		}
		return fmt.Errorf("core: warm repair %w", err)
	}
	w.stats.WarmRefreshes++
	w.dirty = false
	return nil
}

// activeSlots returns the slots of the sessions that have not left, ascending.
func (w *Warm) activeSlots() []int {
	slots := make([]int, 0, w.nActive)
	for slot := range w.sessions {
		if w.active[slot] {
			slots = append(slots, slot)
		}
	}
	return slots
}

// rawRatio returns the anchored raw-rate-per-unit-demand level: the target a
// joining session must be routed up to for the allocation to stay fair.
func (w *Warm) rawRatio() float64 {
	ratio := 0.0
	for slot, fs := range w.gk.raw {
		if !w.active[slot] || len(fs) == 0 {
			continue
		}
		tot := 0.0
		for _, tf := range fs {
			tot += tf.Rate
		}
		if r := tot / w.sessions[slot].Demand; r > ratio {
			ratio = r
		}
	}
	return ratio
}

// warmRepair restores the allocation invariants incrementally: catch-up
// routing for pending joins, then full re-grow phases until the dual
// objective is back at the Garg–Könemann stop criterion. Returns
// errWarmFallback when the budget runs out or the anchored fair-share level
// is gone.
func (w *Warm) warmRepair() error {
	budget := w.opts.RepairPhaseBudget
	used := 0
	charge := func(n int) bool {
		used += n
		return budget <= 0 || used <= budget
	}

	// Rebalance phases owed to the churn processed below, in proportion to
	// the churned demand share. Joins: a newcomer's catch-up alone leaves
	// the incumbents' tree mix frozen in the pre-join regime (cold GK
	// re-routes everyone every phase), so extra full phases let them shift
	// flow off the newly contended links. Leaves: the rollback frees the
	// departed session's capacity, and the survivors' extra phases — routed
	// under lengths where the rolled-back edges are attractive again — are
	// what actually re-packs it. Per-phase gains are demand-proportional, so
	// fairness ratios are preserved either way.
	// Leaves owe proportionally fewer phases than joins: survivors grow into
	// freed capacity (their existing trees just get cheaper), while a join
	// actively contends with incumbents' placed flow, which takes several
	// dilution rounds to shift (see warmRebalanceFactor).
	churnDem, totDem := w.pendingLeaveDem*(warmLeaveRebalanceFactor/warmRebalanceFactor), 0.0
	for slot, s := range w.sessions {
		if w.active[slot] {
			totDem += s.Demand
		}
	}

	if len(w.pendingJoins) > 0 {
		ratio := w.rawRatio()
		if ratio <= 0 {
			// Every anchored session departed; there is no fair-share level
			// to catch newcomers up to.
			return errWarmFallback
		}
		slots := w.pendingJoins
		chunks := make([]float64, len(w.sessions))
		for _, slot := range slots {
			s := w.sessions[slot]
			w.dem[slot] = s.Demand * w.demScale
			chunks[slot] = s.Demand * ratio / float64(w.phases)
			churnDem += s.Demand
		}
		for ph := 0; ph < w.phases; ph++ {
			if !charge(len(slots)) {
				return errWarmFallback
			}
			if err := w.gk.phase(w.runner, slots, chunks, false); err != nil {
				return err
			}
		}
		w.pendingJoins = w.pendingJoins[:0]
	}
	w.pendingLeaveDem = 0
	rebalance := 0
	if churnDem > 0 {
		rebalance = int(math.Ceil(warmRebalanceFactor * float64(w.phases) * churnDem / totDem))
	}

	if rebalance > 0 || w.gk.bigD < 1 {
		slots := w.activeSlots()
		for ph := 0; ph < rebalance; ph++ {
			if !charge(len(slots)) {
				return errWarmFallback
			}
			if err := w.gk.phase(w.runner, slots, w.dem, false); err != nil {
				return err
			}
		}
		// Safety bound, mirroring the cold loop's per-doubling phase budget
		// (Lemma 6): re-growing from a rollback needs strictly fewer phases
		// than the anchor's own doubling round did, so tripping this means
		// drift — re-anchor cold rather than loop.
		safety := phaseBudget(w.g.NumEdges(), w.eps)
		for ph := 0; w.gk.bigD < 1; ph++ {
			if ph >= safety || !charge(len(slots)) {
				return errWarmFallback
			}
			if err := w.gk.phase(w.runner, slots, w.dem, true); err != nil {
				return err
			}
		}
	}
	w.stats.RepairPhases += used
	w.repairSpent += used
	return nil
}

// cold re-anchors: the MaxConcurrentFlow phase loop over the active slots,
// run in place on the allocator's own oracles and runner, whose terminal
// state becomes the warm state. The previous state (including any
// partially applied repair) is discarded; the anchor's fresh ledger makes
// the runner reset its plane rows.
func (w *Warm) cold() error {
	if w.runner == nil {
		w.runner = overlay.NewBatchRunnerOpts(w.g, w.oracles, overlay.BatchOptions{Workers: w.opts.Workers, Plane: w.opts.Plane})
	}
	ids := w.activeSlots()
	a, err := anchorSolve(w.g, w.runner, w.eps, w.sessions, ids)
	if err != nil {
		return fmt.Errorf("core: warm cold anchor: %w", err)
	}
	w.gk, w.base, w.dem, w.phases = a.gk, a.base, a.dem, max(a.phases, 1)
	w.demScale = a.dem[ids[0]] / w.sessions[ids[0]].Demand
	w.stats.ColdSolves++
	w.stats.MSTOps += w.gk.ops + len(ids) // the scale round's k oracle calls included
	w.stats.AnchorCertified = a.lambda / w.gk.dualBound
	// Warm repair routes subsets of the slots: it neither certifies nor
	// double-counts the anchor's oracle calls.
	w.gk.cert, w.gk.ops = nil, 0
	w.pendingJoins = w.pendingJoins[:0]
	w.pendingLeaveDem = 0
	w.dirty = false
	w.forceCold = false
	w.repairSpent = 0
	return nil
}

// Snapshot refreshes and returns the current exactly feasible allocation
// over the active sessions, reindexed densely in arrival order. A snapshot
// taken right after a cold anchor is bit-identical to the anchor solve over
// the same sessions as a dense problem; after warm repair it stays exactly
// feasible by the same final rescale. The returned Solution owns its trees
// (rebuilt under the dense ids) and does not alias warm state.
func (w *Warm) Snapshot() (*Solution, error) {
	if err := w.Refresh(); err != nil {
		return nil, err
	}
	sessions := make([]*overlay.Session, 0, w.nActive)
	flows := make([][]TreeFlow, 0, w.nActive)
	for slot, s := range w.sessions {
		if !w.active[slot] {
			continue
		}
		newID := len(sessions)
		rs := &overlay.Session{ID: newID, Members: s.Members, Demand: s.Demand}
		fs := make([]TreeFlow, 0, len(w.gk.raw[slot]))
		for _, tf := range w.gk.raw[slot] {
			if tf.Rate > 0 {
				fs = append(fs, TreeFlow{Tree: overlay.NewTree(newID, tf.Tree.Pairs, tf.Tree.Routes), Rate: tf.Rate})
			}
		}
		sessions = append(sessions, rs)
		flows = append(flows, fs)
	}
	sol := &Solution{G: w.g, Sessions: sessions, Flows: flows, MSTOps: w.stats.MSTOps, Phases: w.phases}
	sol.Plane = w.Stats().Plane
	if cong := sol.MaxCongestion(); cong > 0 {
		sol.Scale(1 / cong)
	}
	return sol, nil
}

// Close releases the repair runner's worker pool. The allocator must not be
// used afterwards; Close is idempotent.
func (w *Warm) Close() {
	if w.runner != nil {
		w.runner.Close()
		w.runner = nil
	}
}

// warmRebalanceFactor scales the rebalance phases owed per unit of joining
// demand share (see warmRepair). Higher factors converge the warm mix toward
// the cold solution at proportionally higher repair cost; 4 is the smallest
// integer factor that empirically keeps post-join snapshots within the
// (1+eps) band of a cold solve (TestWarmJoinQualityVsExact) while a refresh
// still costs O(phases·(1+factor·k·share)) session-phases versus the cold
// loop's O(phases·k).
const warmRebalanceFactor = 4.0

// warmReanchorFactor sets the amortized re-anchor schedule: the warm path
// re-anchors cold once the repair session-phases accumulated since the last
// anchor exceed this many cold solves' worth (phases·k each). Smaller values
// bound compounded drift tighter; larger values re-anchor less often and push
// steady-state refresh throughput closer to the pure-warm ceiling. 1 keeps
// the replayed churn allocations' mean snapshot throughput inside the ε band
// of the cold baseline's (0.913 of cold on the default warmchurn replay)
// while sustaining the ≥2× steady-state speedup the warm path exists for
// (measured 2.1–2.8× by the same replay).
const warmReanchorFactor = 1

// warmLeaveRebalanceFactor is the per-unit-demand-share rebalance owed for a
// departure. Re-packing freed capacity converges faster than shifting flow
// away from a newcomer's contention (the survivors' marginal trees improve
// monotonically once the rollback deflates the freed edges), so departures
// owe fewer phases than joins.
const warmLeaveRebalanceFactor = 1.0
