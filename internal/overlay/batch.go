package overlay

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"overcast/internal/graph"
)

// BatchResult is one oracle's minimum overlay spanning tree with its raw
// (unnormalized) length under the batch's length function. Len is filled by
// MinTreesLen only (MinTrees leaves it zero): the extra O(tree edges) pass
// is measurable in length-oblivious phase loops like MaxConcurrentFlow's.
//
// Aliasing contract: the []BatchResult slice a runner returns is reused — the
// next MinTrees/MinTreesLen call on the same runner overwrites every slot in
// place. Consume (or copy) the results before rebatching; holding the slice
// across calls observes the *next* batch's trees. The Tree objects are never
// mutated after they are returned, so trees extracted from a batch stay
// valid (and bitwise intact) indefinitely. TestBatchResultSliceReusedAcrossCalls
// pins this contract.
type BatchResult struct {
	Tree *Tree
	Len  float64
	Err  error
}

// BatchOptions configures a BatchRunner beyond the oracle set.
type BatchOptions struct {
	// Workers is the worker-pool size: <= 0 means GOMAXPROCS. The pool is
	// never clamped to the oracle count: idle workers cost nothing, plane
	// rows can outnumber oracles, and single-slot batches run inline.
	Workers int
	// Plane selects the shared SSSP plane mode (see PlaneMode); the zero
	// value is PlaneSubtree. With the plane on, each batch first ensures one
	// Dijkstra row per *distinct* member source of its plane-aware oracles,
	// then assembles every plane-aware oracle's tree from those rows. Rows
	// persist across batches and are recomputed only when the length ledger
	// shows a touched edge on a stored path some oracle reads — unaffected
	// sources skip their Dijkstra entirely. Sound because the solvers'
	// length updates are monotone growths (LengthStore.MonotoneSince guards
	// the rest): growing an edge off a shortest path cannot change its
	// distance, and the deterministic tie-breaks resolve identically, so
	// the stored reads are bitwise what a refill would produce. A dirty row
	// is repaired by resuming Dijkstra over only the affected subtrees
	// (routing.RepairSubtreesInto) when the bit-identity certificate holds —
	// monotone ledger window, strictly positive lengths (AllPositive), dirty
	// roots the ledger journal still covers — and its journal window holds
	// fewer than n/2 touches (n the node count), and refilled in full
	// otherwise. Outputs are identical in both modes. The plane is created
	// by the first batch that finds a PlaneOracle in the set, so a runner
	// over fixed-routing oracles never carries one.
	Plane PlaneMode
}

// BatchRunner evaluates many oracles' MinTree under a shared length ledger
// with a persistent worker pool and one Scratch per worker. The paper's phase
// loops query the same oracle set thousands of times; a runner amortizes both
// the goroutines and the scratch buffers across all of those batches instead
// of rebuilding them per call.
//
// A pool of W workers is the calling goroutine plus W−1 parked helpers. Each
// batch stage publishes its job count, wakes min(W−1, n−1) helpers with one
// token each, and then every participant — the caller included — claims job
// positions from a shared atomic counter until none are left; the stage ends
// at a WaitGroup barrier. A batch therefore costs one wake-up per helper, not
// one channel round trip per slot, and a single-worker runner or a
// single-job stage is simply the zero-helper case: the caller runs every job
// itself.
//
// The reduction is deterministic by construction: result slot j of a batch
// always holds oracle ids[j]'s tree, computed under the batch's immutable
// length snapshot, and job j writes only its own slot (or its own plane
// row), so neither the worker count nor which goroutine claims a job can
// change what a caller observes. Oracles must be safe for concurrent reads
// (both built-in oracles are: MinTreeWith touches only the per-call Scratch).
//
// With the shared plane enabled (any BatchOptions.Plane but PlaneOff) each
// batch runs as two stages. Stage 1 walks the distinct member sources of the
// batch's plane-aware oracles — in batch order, so row assignment is
// canonical — and classifies each row: already proven current
// (cross-round repair skip), subtree-repairable, or needing a fill; the
// fills and repairs fan across the pool, each worker using pooled
// Dijkstra buffers. Stage 2 evaluates the batch slots as before, except
// plane-aware oracles assemble their overlay weights and routes from the
// plane rows instead of re-running per-member Dijkstras. The WaitGroup
// barrier between the stages orders all row writes before any stage-2 read.
type BatchRunner struct {
	g       *graph.Graph
	oracles []TreeOracle
	workers int

	// Shared SSSP plane (nil while disabled or no oracle can use it).
	// planeLive marks that the current batch staged and filled rows, so
	// eval may read them. All these fields are written by the batch
	// goroutine only, between the pool's fan-out barriers.
	plane     *Plane
	planeLive bool
	mode      PlaneMode
	// minLen is the batch ledger's MinLengthLB snapshot, taken at staging and
	// passed to RepairRow for the post-repair scale-separation re-check.
	minLen float64
	// targets[src] is the set of live co-members whose reads row src
	// serves; the dirty-source repair check walks exactly these stored
	// paths. Rebuilt from the live oracles by the first batch after
	// construction, AddOracle or Release sets targetsStale (nil while the
	// plane is off).
	targets      map[graph.NodeID][]graph.NodeID
	targetsStale bool
	metrics      PlaneStats
	// lastStore remembers the ledger of the previous batch so a ledger swap
	// (a different solve phase, a test driving rounds with fresh stores)
	// invalidates every persistent row instead of trusting stale epochs.
	lastStore *graph.LengthStore
	// staged/toFill/toRepair are per-batch scratch: rows referenced by this
	// batch, the subset needing a full Dijkstra, and the subset taking a
	// subtree repair. repairRoots[k] holds the dirty subtree roots of
	// toRepair[k], read from the ledger journal at classification;
	// repairOut[k]/repairOK[k] are that slot's repaired node set and outcome,
	// written by the worker that ran it and folded into the metrics
	// sequentially after the fill barrier. All slots keep their capacity
	// across batches.
	staged      []int32
	toFill      []int32
	toRepair    []int32
	repairRoots [][]graph.NodeID
	repairOut   [][]graph.NodeID
	repairOK    []bool

	// The fan-out (see fanOut). The batch goroutine publishes the stage
	// (filling: plane row jobs, else batch-slot evals), its job count and
	// the batch description (d, ids, wantLen, out) before the wake sends,
	// so each helper reads them through the channel's happens-before edge;
	// next is the shared claim counter, and the WaitGroup barrier orders
	// every job's writes before the caller's reads. sc is the caller's own
	// scratch: the caller is the pool's last worker.
	wake    chan struct{}
	next    atomic.Int64
	njobs   int64
	filling bool
	wg      sync.WaitGroup
	sc      *Scratch
	d       graph.Lengths
	ids     []int
	wantLen bool
	out     []BatchResult
}

// NewBatchRunner builds a runner over oracles with the requested worker-pool
// size and the default plane mode (PlaneSubtree; a no-op for oracle sets
// that cannot use it); see NewBatchRunnerOpts for the full contract.
func NewBatchRunner(g *graph.Graph, oracles []TreeOracle, workers int) *BatchRunner {
	return NewBatchRunnerOpts(g, oracles, BatchOptions{Workers: workers})
}

// NewBatchRunnerOpts builds a runner over oracles. Workers <= 0 means
// GOMAXPROCS. The runner spawns Workers−1 helper goroutines, since the
// goroutine that runs a batch is the pool's last worker; with one worker
// there are no helpers and every batch runs on the caller. Results are
// identical for every pool size and in every plane mode. The oracle set may
// grow later through AddOracle and shrink through Release; the runner keeps
// its own copy of the list, so neither touches the caller's slice.
func NewBatchRunnerOpts(g *graph.Graph, oracles []TreeOracle, opts BatchOptions) *BatchRunner {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := &BatchRunner{
		g: g, oracles: append([]TreeOracle(nil), oracles...), workers: workers, mode: opts.Plane,
		out: make([]BatchResult, len(oracles)),
		sc:  NewScratch(g),
		// The first batch builds the read targets and, if the set holds a
		// PlaneOracle, the plane.
		targetsStale: true,
	}
	// Helpers range over a local copy: Close nils r.wake, possibly before a
	// helper has started. The buffer holds one token per helper, so the
	// wake sends never block.
	wake := make(chan struct{}, workers-1)
	r.wake = wake
	for w := 1; w < workers; w++ {
		go func() {
			sc := NewScratch(g)
			for range wake {
				r.claim(sc)
				r.wg.Done()
			}
		}()
	}
	return r
}

// fanOut runs jobs 0..n-1 of the current stage (filling selects plane-row
// jobs over batch-slot evals) on the caller and up to workers−1 helpers:
// one token wakes each helper, everyone claims positions from the shared
// counter, and the WaitGroup barrier ends the stage. Job pos writes only its
// own output slot or plane row, so the claim order cannot change any result.
func (r *BatchRunner) fanOut(n int, filling bool) {
	r.filling = filling
	r.njobs = int64(n)
	r.next.Store(0)
	helpers := max(min(r.workers, n)-1, 0)
	r.wg.Add(helpers)
	for h := 0; h < helpers; h++ {
		r.wake <- struct{}{}
	}
	r.claim(r.sc)
	r.wg.Wait()
}

// claim runs stage jobs on sc until the counter passes the job count.
func (r *BatchRunner) claim(sc *Scratch) {
	for {
		pos := r.next.Add(1) - 1
		if pos >= r.njobs {
			return
		}
		if r.filling {
			r.fillJob(int(pos), sc)
		} else {
			r.eval(int(pos), sc)
		}
	}
}

// fillJob runs one stage-1 job: positions below len(toFill) are full row
// fills, the rest are subtree repairs. Each job writes only its own row's
// arrays and its own repairOut/repairOK slot, so jobs parallelize freely.
func (r *BatchRunner) fillJob(pos int, sc *Scratch) {
	if pos < len(r.toFill) {
		r.plane.FillRow(int(r.toFill[pos]), r.d, sc.dijkstra())
		return
	}
	k := pos - len(r.toFill)
	r.repairOut[k], r.repairOK[k] = r.plane.RepairRow(
		int(r.toRepair[k]), r.d, sc.dijkstra(), r.minLen, r.repairRoots[k], r.repairOut[k][:0])
}

// Workers returns the resolved worker-pool size.
func (r *BatchRunner) Workers() int { return r.workers }

// AddOracle appends an oracle to the runner's set and returns its id (usable
// in the ids argument of MinTrees/MinTreesLen). It must be called between
// batches, from the same goroutine that runs them — never while a batch is in
// flight. The next batch rebuilds the plane's read targets from the live
// oracles, so the new oracle's paths are walked against each row's fill
// epoch like every other target.
func (r *BatchRunner) AddOracle(o TreeOracle) int {
	r.oracles = append(r.oracles, o)
	r.out = append(r.out, BatchResult{})
	r.targetsStale = true
	return len(r.oracles) - 1
}

// Release drops the runner's reference to oracle id, so a departed session's
// oracle (route tables, memoized trees) can be collected. Like AddOracle it
// must be called between batches; id keeps its slot and must never appear in
// a later batch. The next batch rebuilds the plane's read targets from the
// live oracles, so the skip check walks only paths someone still reads.
func (r *BatchRunner) Release(id int) {
	r.oracles[id] = nil
	r.targetsStale = true
}

// Metrics returns a snapshot of the runner's shared-plane counters. Call it
// between batches (the counters are updated while a batch is staged).
func (r *BatchRunner) Metrics() PlaneStats { return r.metrics }

// eval computes the tree of the oracle in batch slot pos.
func (r *BatchRunner) eval(pos int, sc *Scratch) {
	i := pos
	if r.ids != nil {
		i = r.ids[pos]
	}
	var t *Tree
	var err error
	if r.planeLive {
		if po, ok := r.oracles[i].(PlaneOracle); ok {
			t, err = po.MinTreeFromPlane(r.d, r.plane, sc)
		}
	}
	if t == nil && err == nil {
		t, err = MinTreeWith(r.oracles[i], r.d, sc)
	}
	if err != nil {
		r.out[pos] = BatchResult{Err: err}
		return
	}
	res := BatchResult{Tree: t}
	if r.wantLen {
		res.Len = t.LengthUnder(r.d)
	}
	r.out[pos] = res
}

// rowServiceable is the exact read-path walk of the dirty-source check. The
// oracles never read a whole row: MinTreeFromPlane reads, for the row rooted
// at member i, only dist[m_j] (overlay weights) and the stored parent chains
// m_j -> m_i (route extraction) for the co-members j > i of the sessions
// containing the source. Those targets are precomputed per source
// (planeTargets) and change only between batches. The walk reports whether
// every stored source->target path of row is untouched since the row's fill
// epoch (LastTouched stamps are complete history, so it needs no journal
// window).
//
// Why that is bit-exact under a monotone window: growing edges can never
// lower any distance, so an untouched stored shortest path keeps both its
// length and its optimality — dist[target] is unchanged. And the
// deterministic relaxation replay resolves the parent chain identically:
// every node on the untouched path still pops at the same relative position
// (competitors' keys only grew), still receives its stored winning offer
// first (the offer is untouched), and competing offers only became more
// losing. Touched edges elsewhere in the row's SSSP tree may well change the
// parts nobody reads, so true proves the row's reads current but not the
// whole row: the skip validates the row for this batch and leaves its fill
// epoch alone, so the next walk, over whatever targets the live oracles
// then name, checks against the epoch the stored content really has.
func (r *BatchRunner) rowServiceable(ls *graph.LengthStore, row int) bool {
	fill := r.plane.FillEpoch(row)
	parents := r.plane.ParentRow(row)
	src := r.plane.Source(row)
	for _, t := range r.targets[src] {
		for v := t; v != src; {
			e := parents[v]
			if e < 0 || ls.LastTouched(e) > fill {
				return false
			}
			edge := r.g.Edges[e]
			if v == edge.U {
				v = edge.V
			} else {
				v = edge.U
			}
		}
	}
	return true
}

// planeTargets precomputes, for every distinct plane source, the union of
// co-members whose distance/route reads are served from that source's row
// (the co-members with a larger member index, over all sessions — see
// ArbitraryOracle.MinTreeFromPlane's weight orientation), deduplicated and
// sorted. Session member lists are immutable, so only the oracle set moves
// them.
func planeTargets(oracles []TreeOracle) map[graph.NodeID][]graph.NodeID {
	targets := make(map[graph.NodeID][]graph.NodeID)
	for _, o := range oracles {
		if po, ok := o.(PlaneOracle); ok {
			members := po.PlaneSources()
			for i, s := range members {
				targets[s] = append(targets[s], members[i+1:]...)
			}
		}
	}
	for s, ts := range targets {
		slices.Sort(ts)
		targets[s] = slices.Compact(ts)
	}
	return targets
}

// stagePlane runs stage 1 of a batch: walk the distinct member sources of
// the batch's plane-aware oracles (in batch order — canonical row
// assignment), classify each stored row — current (skip),
// subtree-repairable, or needing a full fill — and fan the fills and repairs
// across the worker pool. No-op when the plane is off or the batch has no
// plane-aware oracle. The plane is created here, once the oracle set first
// holds a PlaneOracle.
func (r *BatchRunner) stagePlane(ls *graph.LengthStore, n int) {
	r.planeLive = false
	if r.mode == PlaneOff {
		return
	}
	if r.targetsStale {
		r.targets = planeTargets(r.oracles)
		r.targetsStale = false
	}
	if r.plane == nil {
		if len(r.targets) == 0 {
			return
		}
		r.plane = NewPlane(r.g)
	}
	if ls != r.lastStore {
		// A different ledger: every persistent row's epoch is meaningless.
		r.plane.Reset()
		r.lastStore = ls
	}
	r.plane.BeginBatch()
	cur := ls.Epoch()
	r.minLen = ls.MinLengthLB()
	nodes := graph.Epoch(r.g.NumNodes())
	requests := 0
	r.staged = r.staged[:0]
	for pos := 0; pos < n; pos++ {
		i := pos
		if r.ids != nil {
			i = r.ids[pos]
		}
		po, ok := r.oracles[i].(PlaneOracle)
		if !ok {
			continue
		}
		srcs := po.PlaneSources()
		requests += len(srcs)
		for _, s := range srcs {
			if row, first := r.plane.Reference(s); first {
				r.staged = append(r.staged, int32(row))
			}
		}
	}
	if len(r.staged) == 0 {
		return
	}
	r.planeLive = true
	r.metrics.Rounds++
	r.metrics.Requests += requests

	// Classify: current (skip), subtree-repairable, or fill.
	r.toFill = r.toFill[:0]
	r.toRepair = r.toRepair[:0]
	for _, row32 := range r.staged {
		row := int(row32)
		fill := r.plane.FillEpoch(row)
		if fill < 0 {
			r.toFill = append(r.toFill, row32) // new this batch
			continue
		}
		if fill == cur {
			r.plane.Validate(row)
			r.metrics.Skipped++
			continue
		}
		if !ls.MonotoneSince(fill) {
			// Some length shrank since this row was filled (an underlay
			// recovery or downward drift mirrored into the ledger): a shrunk
			// edge outside the stored tree can re-route shortest paths, so no
			// touched-edge argument applies — degrade deterministically to a
			// full refill.
			r.metrics.NonMonotoneRefills++
			r.metrics.Repaired++
			r.toFill = append(r.toFill, row32)
			continue
		}
		if r.rowServiceable(ls, row) {
			// No stored read path took a touched edge: the reads are
			// current for this batch, and the fill epoch stays where the
			// content was filled. The walk-skip stays ahead of subtree
			// repair on purpose: it is cheaper than a repair, and the row's
			// reads do not change.
			r.plane.Validate(row)
			r.metrics.Skipped++
			continue
		}
		if 2*ls.TouchedCount(fill) < nodes && ls.AllPositive() &&
			scaleSafe(r.minLen, r.plane.maxDist[row]) && r.stageRepair(ls, row32) {
			// A read path is dirty, so the row must be recomputed, and the
			// bit-identity certificate holds (monotone window checked above,
			// dirty roots the journal still covers, strictly positive
			// lengths, and lengths large enough relative to the row's
			// distances that every relaxation strictly grows its float key —
			// without that an underflowing length behaves like a
			// zero-length edge and ties can flip). The journal window is
			// also shorter than n/2 touches: longer windows dirty so much of
			// the row that the repair mostly bails into the refill it was
			// meant to avoid. Resume Dijkstra over just the dirty subtrees;
			// the repair runs with the fills.
			r.plane.SetFillEpoch(row, cur)
			continue
		}
		r.metrics.Repaired++
		r.toFill = append(r.toFill, row32)
	}
	nf, nr := len(r.toFill), len(r.toRepair)
	r.metrics.Sources += nf + nr
	for _, row32 := range r.toFill {
		r.plane.SetFillEpoch(int(row32), cur)
	}
	if nf+nr == 0 {
		return
	}
	r.fanOut(nf+nr, true)
	// Post-barrier, single-writer again: fold the repair outcomes into the
	// metrics.
	for k := range r.toRepair {
		if r.repairOK[k] {
			r.metrics.SubtreeRepaired++
			r.metrics.SubtreeNodes += len(r.repairOut[k])
		} else {
			// The subtree path bailed (oversized S, a broken scale
			// certificate or a defensive invariant miss) and RepairRow ran
			// the fallback refill.
			r.metrics.Repaired++
		}
	}
}

// stageRepair replays the ledger journal since row's fill epoch into the
// next repair slot, collecting the child endpoint of every touched edge of
// the row's stored parent tree — the subtree roots routing.RepairSubtreesInto
// resettles — and queues the row for repair. Each edge counts once, at its
// last touch (LastTouched), so repeated bumps add no duplicates, and the
// roots never outnumber the window. It reports false, and the row must
// refill, when the journal no longer covers the window: the journal keeps at
// least its last graph.JournalWindow/2 entries and the classifier only sends
// windows below n/2, so that happens only on graphs of more than
// JournalWindow nodes. Slots keep their buffers across batches.
func (r *BatchRunner) stageRepair(ls *graph.LengthStore, row32 int32) bool {
	k := len(r.toRepair)
	if k == len(r.repairRoots) {
		r.repairRoots = append(r.repairRoots, nil)
		r.repairOut = append(r.repairOut, nil)
		r.repairOK = append(r.repairOK, false)
	}
	epoch := r.plane.FillEpoch(int(row32)) // advanced to each replayed entry's epoch
	parents := r.plane.ParentRow(int(row32))
	roots := r.repairRoots[k][:0]
	covered := ls.ForEachTouched(epoch, func(e graph.EdgeID) bool {
		epoch++
		if ls.LastTouched(e) != epoch {
			return false
		}
		if edge := r.g.Edges[e]; parents[edge.U] == e {
			roots = append(roots, edge.U)
		} else if parents[edge.V] == e {
			roots = append(roots, edge.V)
		}
		return false
	})
	r.repairRoots[k] = roots
	if !covered {
		return false
	}
	r.toRepair = append(r.toRepair, row32)
	return true
}

// MinTrees evaluates the oracles named by ids (nil = all oracles) under ls's
// current lengths and returns one result per id, in id-list order, with Len
// left zero. ls must not be mutated until MinTrees returns. The returned
// slice is reused by the next call — consume it first. Trees in the results
// do not alias runner state and stay valid indefinitely.
func (r *BatchRunner) MinTrees(ls *graph.LengthStore, ids []int) []BatchResult {
	return r.run(ls, ids, false)
}

// MinTreesLen is MinTrees with each result's Len filled with the tree's raw
// length under the snapshot (computed on the workers, so the extra pass
// parallelizes).
func (r *BatchRunner) MinTreesLen(ls *graph.LengthStore, ids []int) []BatchResult {
	return r.run(ls, ids, true)
}

func (r *BatchRunner) run(ls *graph.LengthStore, ids []int, wantLen bool) []BatchResult {
	n := len(r.oracles)
	if ids != nil {
		n = len(ids)
	}
	r.d, r.ids, r.wantLen = ls.Values(), ids, wantLen
	r.stagePlane(ls, n)
	r.fanOut(n, false)
	return r.out[:n]
}

// Close releases the worker pool. The runner must not be used afterwards;
// Close is idempotent.
func (r *BatchRunner) Close() {
	if r.wake != nil {
		close(r.wake)
		r.wake = nil
	}
}
