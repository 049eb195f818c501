package overlay

import (
	"runtime"
	"sort"
	"sync"

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
// valid (and bitwise intact) indefinitely; with the plane on a later batch
// may return the *same* Tree pointer again when the length ledger proves the
// recomputation would be identical (the tree cache) —
// callers must not rely on pointer freshness, only on immutability
// (TestBatchResultSliceReusedAcrossCalls pins the slice half of this
// contract, TestTreeCacheServesIdenticalTrees the tree half).
type BatchResult struct {
	Tree *Tree
	Len  float64
	Err  error
}

// BatchOptions configures a BatchRunner beyond the oracle set.
type BatchOptions struct {
	// Workers is the worker-pool size: <= 0 means GOMAXPROCS. The pool is
	// clamped to the oracle count unless the shared plane is active (plane
	// rows can outnumber oracles, so extra workers still help stage 1).
	Workers int
	// Plane selects the shared SSSP plane mode (see PlaneMode); the zero
	// value is PlaneSubtree. With the plane on, each batch first ensures one
	// Dijkstra row per *distinct* member source of its plane-aware oracles,
	// then assembles every plane-aware oracle's tree from those rows. Rows
	// persist across batches and are recomputed only when the length ledger
	// shows a touched edge inside the row's stored SSSP tree — unaffected
	// sources skip their Dijkstra entirely. Sound because the solvers'
	// length updates are monotone growths (LengthStore.MonotoneSince guards
	// the rest): growing an edge outside a shortest-path tree cannot change
	// any distance, and the deterministic tie-breaks resolve identically, so
	// the stored row is bitwise what a refill would produce. Under
	// PlaneSubtree a dirty row is repaired by resuming Dijkstra over only the
	// affected subtrees (routing.RepairSubtreesInto) whenever the bit-identity
	// certificate holds — monotone ledger window, strictly positive lengths
	// (LengthStore.AllPositive), an exact (never serviceable-skipped) row,
	// and a known dirty-root set — and refilled in full otherwise. Outputs
	// are bitwise identical in every mode. The plane is a no-op for oracle
	// sets without a PlaneOracle (e.g. all fixed-routing).
	Plane PlaneMode
	// Seed optionally names a read-only plane whose rows were filled under
	// lengths bitwise identical to the epoch-0 contents of the ledgers this
	// runner will see. Rows first staged while the ledger is monotone-clean
	// since epoch 0 are copied from the seed (O(n)) instead of computed
	// (O((n+m)log n)) — the MCF beta prestep shares one seed across all
	// same-delta subproblems this way. The seed must not be mutated while
	// any runner holds it.
	Seed *Plane
	// Dynamic declares that the oracle set will grow after construction via
	// AddOracle (the warm-start allocator admits sessions over the runner's
	// lifetime). It keeps the worker pool at the requested size instead of
	// clamping it to the (possibly empty) initial oracle count, and — unless
	// the plane is off — creates the plane eagerly, since a plane-aware
	// oracle may arrive later even if none exists yet.
	Dynamic bool
}

// BatchRunner evaluates many oracles' MinTree under a shared length ledger
// with a persistent worker pool and one Scratch per worker. The paper's phase
// loops query the same oracle set thousands of times; a runner amortizes both
// the goroutines and the scratch buffers across all of those batches instead
// of rebuilding them per call.
//
// The reduction is deterministic by construction: result slot j of a batch
// always holds oracle ids[j]'s tree, computed under the batch's immutable
// length snapshot, so neither the worker count nor goroutine scheduling can
// change what a caller observes. Oracles must be safe for concurrent reads
// (both built-in oracles are: MinTreeWith touches only the per-call Scratch).
//
// With the shared plane enabled (any BatchOptions.Plane but PlaneOff) each
// batch runs as two stages. Stage 1 walks the distinct member sources of the
// batch's plane-aware oracles — in batch order, so row assignment is
// canonical — and classifies each row: already proven current
// (cross-round repair skip), copyable from a prestep seed, or needing a
// fill; the fills fan across the worker pool, each worker using pooled
// Dijkstra buffers. Stage 2 evaluates the batch slots as before, except
// plane-aware oracles assemble their overlay weights and routes from the
// plane rows instead of re-running per-member Dijkstras. The WaitGroup
// barrier between the stages orders all row writes before any stage-2 read.
type BatchRunner struct {
	g       *graph.Graph
	oracles []TreeOracle
	workers int

	// Inline scratch: the whole batch when workers == 1, single-slot batches
	// otherwise (lazily created; avoids channel round-trips for one job).
	seq *Scratch

	// Shared SSSP plane (nil when disabled or no oracle can use it).
	// planeLive marks that the current batch staged and filled rows, so
	// eval may read them; filling flips the meaning of a job from "evaluate
	// batch slot" to "fill plane row". All these fields are written by the
	// batch goroutine only, between the pool's channel/WaitGroup barriers.
	plane     *Plane
	planeLive bool
	filling   bool
	subtree   bool
	seed      *Plane
	// walkedTo is the ledger epoch up to which the per-batch journal walk has
	// fanned touches through the plane's inverted index (stagePlane replays
	// (walkedTo, cur] once per batch, for all rows at once).
	walkedTo graph.Epoch
	// minLen is the batch ledger's MinLengthLB snapshot, taken at staging and
	// passed to RepairRow for the post-repair scale-separation re-check.
	minLen float64
	// targets[src] is the static set of co-members whose reads row src
	// serves; the dirty-source repair check walks exactly these stored
	// paths. Built once at construction (nil when the plane is off).
	targets map[graph.NodeID][]graph.NodeID
	// cache[i] is oracle i's last plane-assembled tree with the ledger epoch
	// it was built at (nil tree = empty). When every member row of the
	// oracle still has DijkstraEpoch <= the entry's epoch, the rows are
	// bitwise unchanged since the tree was assembled, so the identical tree
	// is returned without re-running Prim or route extraction. useCache is
	// the per-batch-slot decision, precomputed sequentially in stagePlane so
	// the metrics stay single-writer.
	cache    []treeCacheEntry
	useCache []bool
	metrics  PlaneStats
	// ls is the ledger of the current batch; lastStore remembers the ledger
	// of the previous batch so a ledger swap (a different solve phase, a
	// test driving rounds with fresh stores) invalidates every persistent
	// row instead of trusting stale epochs. curEpoch is the batch's ledger
	// epoch, published before the jobs fan out.
	lastStore *graph.LengthStore
	curEpoch  graph.Epoch
	// staged/toFill/toRepair are per-batch scratch: rows referenced by this
	// batch, the subset needing a full Dijkstra, and the subset taking a
	// subtree repair. repairRoots[k] aliases the plane's pending dirty-root
	// list for toRepair[k]; repairOut[k]/repairOK[k] are that slot's repaired
	// node set and outcome, written by the worker that ran it and folded into
	// metrics/index sequentially after the fill barrier.
	staged      []int32
	toFill      []int32
	toRepair    []int32
	repairRoots [][]graph.NodeID
	repairOut   [][]graph.NodeID
	repairOK    []bool

	// Parallel mode: persistent workers fed per-batch via jobs. d, ids and
	// out describe the current batch; they are published before the job sends
	// and read by workers via the channel's happens-before edge, and the
	// WaitGroup barrier orders all slot writes before the caller's reads.
	jobs    chan int
	wg      sync.WaitGroup
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
// GOMAXPROCS, and the pool is never larger than the oracle set unless the
// plane is active. With one worker the runner degrades to a single-scratch
// sequential path with zero goroutines; results are identical either way —
// and identical in every plane mode.
func NewBatchRunnerOpts(g *graph.Graph, oracles []TreeOracle, opts BatchOptions) *BatchRunner {
	var plane *Plane
	if opts.Plane != PlaneOff {
		if opts.Dynamic {
			plane = NewPlane(g)
		} else {
			for _, o := range oracles {
				if _, ok := o.(PlaneOracle); ok {
					plane = NewPlane(g)
					break
				}
			}
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if plane == nil && !opts.Dynamic && workers > len(oracles) {
		workers = len(oracles)
	}
	if workers < 1 {
		workers = 1
	}
	r := &BatchRunner{
		g: g, oracles: oracles, workers: workers,
		plane: plane, subtree: opts.Plane == PlaneSubtree,
		seed: opts.Seed,
		out:  make([]BatchResult, len(oracles)),
	}
	if plane != nil {
		r.targets = planeTargets(oracles)
		r.cache = make([]treeCacheEntry, len(oracles))
		r.useCache = make([]bool, len(oracles))
		if r.subtree {
			// The inverted edge->rows index only serves subtree
			// classification; full-refill mode keeps the cheaper per-row
			// journal-replay check and pays nothing for index maintenance.
			plane.EnableIndex()
		}
	}
	if workers == 1 {
		r.seq = NewScratch(g)
		return r
	}
	// Workers range over a local copy: Close nils r.jobs, possibly before a
	// worker has started.
	jobs := make(chan int)
	r.jobs = jobs
	for w := 0; w < workers; w++ {
		go func() {
			sc := NewScratch(g)
			for pos := range jobs {
				if r.filling {
					r.fillJob(pos, sc)
				} else {
					r.eval(pos, sc)
				}
				r.wg.Done()
			}
		}()
	}
	return r
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
// flight. Growing the set never invalidates existing plane rows or cached
// trees: the new oracle's member sources only *add* read targets, and a
// stored row that was current for a superset of targets is current for the
// old ones too (the repair check just walks a few more stored paths).
func (r *BatchRunner) AddOracle(o TreeOracle) int {
	id := len(r.oracles)
	r.oracles = append(r.oracles, o)
	r.out = append(r.out, BatchResult{})
	if r.plane != nil {
		r.cache = append(r.cache, treeCacheEntry{})
		r.useCache = append(r.useCache, false)
		if po, ok := o.(PlaneOracle); ok {
			mergePlaneTargets(r.targets, po.PlaneSources())
		}
	}
	return id
}

// Metrics returns a snapshot of the runner's shared-plane counters. Call it
// between batches (the counters are updated while a batch is staged).
func (r *BatchRunner) Metrics() PlaneStats { return r.metrics }

// treeCacheEntry is one oracle's last plane-assembled tree and the ledger
// epoch its input rows carried.
type treeCacheEntry struct {
	tree  *Tree
	epoch graph.Epoch
}

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
			if r.useCache != nil && r.useCache[pos] {
				t = r.cache[i].tree
			} else {
				t, err = po.MinTreeFromPlane(r.d, r.plane, sc)
				if err == nil && r.cache != nil {
					r.cache[i] = treeCacheEntry{tree: t, epoch: r.curEpoch}
				}
			}
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

// rowCurrent reports whether the stored content of row is provably
// interchangeable with a fresh Dijkstra under ls's current lengths for
// every read any oracle can make of it — the dirty-source repair check.
//
// The oracles never read a whole row: MinTreeFromPlane reads, for the row
// rooted at member i, only dist[m_j] (overlay weights) and the stored
// parent chains m_j -> m_i (route extraction) for the co-members j > i of
// the sessions containing the source. Those targets are static (member sets
// never change), precomputed per source at construction (planeTargets). The
// row therefore stays serviceable iff
//
//	(a) every ledger mutation since the row's fill epoch was a monotone
//	    growth (LengthStore.MonotoneSince), and
//	(b) no edge on a stored source->target path was touched since then
//	    (established either by replaying the ledger's touched-edge journal
//	    against the row's stored parent tree — the fast path, which when
//	    clean proves the whole row current — or by walking the stored
//	    target paths against the per-edge LastTouched stamps).
//
// Why that is bit-exact: growing edges can never lower any distance, so an
// untouched stored shortest path keeps both its length and its optimality —
// dist[target] is unchanged. And the deterministic relaxation replay
// resolves the parent chain identically: every node on the untouched path
// still pops at the same relative position (competitors' keys only grew),
// still receives its stored winning offer first (the offer is untouched),
// and competing offers only became more losing. Touched edges elsewhere in
// the row's SSSP tree may well change the parts nobody reads; the row is
// then stale-but-serviceable, which is why a skip advances the row's epoch:
// path cleanliness composes ((fill,cur] clean and (cur,cur'] clean iff
// (fill,cur'] clean) precisely because the checked target set is static.
func (r *BatchRunner) rowCurrent(ls *graph.LengthStore, row int) bool {
	fill := r.plane.FillEpoch(row)
	if fill < 0 {
		return false
	}
	if fill == ls.Epoch() {
		return true
	}
	if !ls.MonotoneSince(fill) {
		// Some length shrank since this row was filled (an underlay recovery
		// or downward drift mirrored into the ledger): a shrunk edge outside
		// the stored tree can re-route shortest paths, so no touched-edge
		// argument applies — degrade deterministically to a full refill.
		// Single-writer: rowCurrent only runs on stagePlane's sequential
		// classify pass.
		r.metrics.NonMonotoneRefills++
		return false
	}
	parents := r.plane.ParentRow(row)
	// Journal fast path: when the mutation window since fill is short,
	// replay it and test each touched edge against the row's *whole* stored
	// SSSP tree — an edge is a parent edge iff it is the stored parent of
	// one of its own two endpoints, so each probe is O(1). No touched tree
	// edge at all is the original full-row argument: the entire row (not
	// just the read paths) is bitwise what a recompute would produce. A tree
	// hit is merely inconclusive (the touched edge may sit outside every
	// read path), so fall through to the exact walk below.
	if cnt := ls.TouchedCount(fill); cnt < graph.Epoch(len(parents)) {
		clean := true
		if ls.ForEachTouched(fill, func(e graph.EdgeID) bool {
			edge := r.g.Edges[e]
			if parents[edge.U] == e || parents[edge.V] == e {
				clean = false
			}
			return !clean
		}) && clean {
			return true
		}
	}
	return r.rowServiceable(ls, row)
}

// rowServiceable is the exact target-path walk of the dirty-source check: it
// reports whether every stored source->target path of row is untouched since
// the row's fill epoch (LastTouched stamps are complete history, so this
// needs no journal window). True proves the read-visible parts of the row
// bitwise current — but not the whole row: unread parts may be stale, which
// is why a skip validated only by this walk demotes the row from exact to
// serviceable (subtree repair must not seed from its frontier afterwards).
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
// sorted. The sets are static because session member lists are immutable.
func planeTargets(oracles []TreeOracle) map[graph.NodeID][]graph.NodeID {
	targets := make(map[graph.NodeID][]graph.NodeID)
	for _, o := range oracles {
		po, ok := o.(PlaneOracle)
		if !ok {
			continue
		}
		mergePlaneTargets(targets, po.PlaneSources())
	}
	return targets
}

// mergePlaneTargets folds one oracle's member list into the per-source target
// sets, keeping each set sorted and deduplicated.
func mergePlaneTargets(targets map[graph.NodeID][]graph.NodeID, members []graph.NodeID) {
	for i, s := range members {
		ts := append(targets[s], members[i+1:]...)
		sort.Ints(ts)
		dedup := ts[:0]
		for j, t := range ts {
			if j == 0 || t != ts[j-1] {
				dedup = append(dedup, t)
			}
		}
		targets[s] = dedup
	}
}

// stagePlane runs stage 1 of a batch: under PlaneSubtree, replay the
// ledger journal once through the plane's inverted edge->rows index
// (accumulating per-row dirty subtree roots); walk the distinct member
// sources of the batch's plane-aware oracles (in batch order — canonical row
// assignment), classify each stored row — current (skip),
// subtree-repairable, seedable (copy), or needing a full fill — and fan the
// fills and repairs across the worker pool in parallel mode. Under PlaneFull
// the index is never maintained and classification falls back to the per-row
// journal-replay check. No-op when the plane is off or the batch has no
// plane-aware oracle.
func (r *BatchRunner) stagePlane(ls *graph.LengthStore, n int) {
	r.planeLive = false
	if r.plane == nil {
		return
	}
	if ls != r.lastStore {
		// A different ledger: every persistent row's epoch (and every cached
		// tree derived from its rows) is meaningless.
		r.plane.Reset()
		for i := range r.cache {
			r.cache[i] = treeCacheEntry{}
		}
		r.lastStore = ls
		r.walkedTo = ls.Epoch()
	}
	r.plane.BeginBatch()
	cur := ls.Epoch()
	r.curEpoch = cur
	r.minLen = ls.MinLengthLB()
	if r.subtree && r.walkedTo < cur {
		// The per-batch journal walk: fan each touch in (walkedTo, cur]
		// through the index to the rows whose stored trees use the edge —
		// O(touched x affected rows) for the whole batch, replacing the old
		// per-referenced-row journal replay. Rows filled this batch clear
		// their dirt after the fill, so accumulated dirt always describes
		// history since the row's last content write.
		if !ls.ForEachTouched(r.walkedTo, func(e graph.EdgeID) bool {
			r.plane.MarkTouched(e)
			return false
		}) {
			// The journal window no longer covers the walk position (a fault
			// burst, or rounds without a staged batch): per-row dirt is
			// unknowable, so latch every row onto the conservative target-
			// walk path until its next content write.
			r.plane.loseAllDirty()
		}
		r.walkedTo = cur
	}
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

	// Classify: current (skip), subtree-repairable, seedable (copy), or fill.
	r.toFill = r.toFill[:0]
	r.toRepair = r.toRepair[:0]
	r.repairRoots = r.repairRoots[:0]
	for _, row32 := range r.staged {
		row := int(row32)
		fill := r.plane.FillEpoch(row)
		if fill < 0 {
			// New this batch. A seed row is the epoch-0 content; it is
			// current iff nothing has shrunk and nothing in its tree grew
			// since epoch 0 — which the pre-index check verifies after the
			// copy (fill==0 vs cur). The index never saw the copied tree, so
			// its dirt state says nothing about it: a row accepted via the
			// target walk is only serviceable, hence exact stays false and
			// subtree repair waits for the row's first real fill.
			if r.seed != nil && r.plane.CopyRow(row, r.seed, r.plane.Source(row)) {
				r.plane.SetFillEpoch(row, 0)
				if cur == 0 || r.rowCurrent(ls, row) {
					r.plane.SetFillEpoch(row, cur)
					r.plane.SetDijkstraEpoch(row, cur)
					r.plane.setExact(row, cur == 0)
					r.plane.clearDirty(row)
					r.plane.indexRow(row)
					r.metrics.Seeded++
					continue
				}
				// Seed content is stale under these lengths: recompute.
				r.plane.SetFillEpoch(row, -1)
			}
			r.toFill = append(r.toFill, int32(row))
			continue
		}
		if fill == cur {
			r.plane.Validate(row)
			r.metrics.Skipped++
			continue
		}
		if !r.subtree {
			// No index maintained: classify with the pre-index per-row check
			// (journal replay against the whole stored tree, else the exact
			// target-path walk). Skip/refill decisions may differ from the
			// indexed path's, but both only skip provably current content, so
			// outputs are bitwise identical either way.
			if r.rowCurrent(ls, row) {
				r.plane.SetFillEpoch(row, cur)
				r.plane.Validate(row)
				r.metrics.Skipped++
				continue
			}
			r.metrics.Repaired++
			r.toFill = append(r.toFill, int32(row))
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
			r.toFill = append(r.toFill, int32(row))
			continue
		}
		if !r.plane.dirtyNew(row) {
			// No touched edge has entered the row's stored tree since its
			// last validation (the index walk would have recorded it), so the
			// whole stored row — or, for a row demoted to serviceable, its
			// read-visible paths — is bitwise what a recompute would produce.
			// Epoch advance composes exactly as the old per-row journal
			// check: (fill,prev] accounted + (prev,cur] clean.
			r.plane.SetFillEpoch(row, cur)
			r.plane.Validate(row)
			r.metrics.Skipped++
			continue
		}
		if r.rowServiceable(ls, row) {
			// Touched tree edges, but none on a stored read path: the row
			// stays serviceable (unread parts may now be stale, so it is no
			// longer exact). The walk just verified every read path clean up
			// to cur, and read paths are a subset of the stored tree the
			// index watches, so the accounted dirt can be dropped outright:
			// the row skips in O(1) until MarkTouched records a new touch
			// inside its stored tree. The walk-skip stays ahead of subtree
			// repair on purpose — it leaves the row's Dijkstra epoch (and
			// with it the tree cache) untouched, where a repair would force
			// downstream tree reassembly for rows whose reads never change.
			r.plane.SetFillEpoch(row, cur)
			r.plane.Validate(row)
			r.plane.setExact(row, false)
			r.plane.clearDirty(row)
			r.metrics.Skipped++
			continue
		}
		if r.subtree && r.plane.rowExact(row) && !r.plane.dirtyLost[row] && ls.AllPositive() &&
			scaleSafe(ls.MinLengthLB(), r.plane.maxDist[row]) {
			// A read path is dirty, so the row must be recomputed — exactly
			// where the old classification hit its repair floor with a full
			// refill. The bit-identity certificate holds (monotone window
			// checked above, exact content, complete dirty-root set, strictly
			// positive lengths, and lengths large enough relative to the
			// row's distances that every relaxation strictly grows its float
			// key — without that an underflowing length behaves like a
			// zero-length edge and ties can flip): resume Dijkstra over just
			// the dirty subtrees. Epochs advance now so decideTreeCache sees
			// the recompute; the repair itself runs with the fills.
			r.toRepair = append(r.toRepair, int32(row))
			r.repairRoots = append(r.repairRoots, r.plane.dirtyRoots[row])
			r.plane.SetFillEpoch(row, cur)
			r.plane.SetDijkstraEpoch(row, cur)
			continue
		}
		r.metrics.Repaired++
		r.toFill = append(r.toFill, int32(row))
	}
	nf, nr := len(r.toFill), len(r.toRepair)
	r.metrics.Sources += nf + nr
	for _, row := range r.toFill {
		r.plane.SetFillEpoch(int(row), cur)
		r.plane.SetDijkstraEpoch(int(row), cur)
	}
	r.decideTreeCache(n)
	if nf+nr == 0 {
		return
	}
	for len(r.repairOut) < nr {
		r.repairOut = append(r.repairOut, nil)
		r.repairOK = append(r.repairOK, false)
	}
	if r.workers == 1 || nf+nr == 1 {
		if r.seq == nil {
			r.seq = NewScratch(r.g)
		}
		sp := r.seq.dijkstra()
		for _, row := range r.toFill {
			r.plane.FillRow(int(row), r.d, sp)
		}
		for k, row := range r.toRepair {
			r.repairOut[k], r.repairOK[k] = r.plane.RepairRow(
				int(row), r.d, sp, r.minLen, r.repairRoots[k], r.repairOut[k][:0])
		}
	} else {
		r.filling = true
		r.wg.Add(nf + nr)
		for pos := 0; pos < nf+nr; pos++ {
			r.jobs <- pos
		}
		r.wg.Wait()
		r.filling = false
	}
	// Post-barrier bookkeeping, single-writer again: fold repair outcomes
	// into the metrics, register the rewritten parent edges in the index, and
	// reset consumed dirt (every row below just became exact content).
	for _, row := range r.toFill {
		r.plane.clearDirty(int(row))
		r.plane.setExact(int(row), true)
		r.plane.indexRow(int(row))
	}
	for k, row32 := range r.toRepair {
		row := int(row32)
		if r.repairOK[k] {
			r.metrics.SubtreeRepaired++
			r.metrics.SubtreeNodes += len(r.repairOut[k])
			r.plane.indexNodes(row, r.repairOut[k])
		} else {
			// The subtree path bailed (oversized S or a defensive invariant
			// miss) and RepairRow ran the fallback refill.
			r.metrics.Repaired++
			r.plane.indexRow(row)
		}
		r.plane.clearDirty(row)
		r.plane.setExact(row, true)
	}
}

// decideTreeCache precomputes, per batch slot, whether the oracle's cached
// tree is still bitwise exact: every member row's last actual Dijkstra must
// predate (or coincide with) the epoch the tree was assembled at. Runs
// sequentially before the eval fan-out so the metrics stay single-writer and
// the workers only read the decisions.
func (r *BatchRunner) decideTreeCache(n int) {
	for pos := 0; pos < n; pos++ {
		r.useCache[pos] = false
		i := pos
		if r.ids != nil {
			i = r.ids[pos]
		}
		po, ok := r.oracles[i].(PlaneOracle)
		if !ok {
			continue
		}
		ce := r.cache[i]
		if ce.tree == nil {
			continue
		}
		current := true
		for _, s := range po.PlaneSources() {
			row := r.plane.Row(s)
			if row < 0 || r.plane.DijkstraEpoch(row) > ce.epoch {
				current = false
				break
			}
		}
		if current {
			r.useCache[pos] = true
			r.metrics.TreeHits++
		}
	}
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
	if r.workers == 1 || n == 1 {
		// Single slot or single worker: evaluate inline. The parallel
		// variant's scratch lives in its workers, so the inline path keeps
		// its own; results are identical (Scratch state never leaks into
		// outputs).
		if r.seq == nil {
			r.seq = NewScratch(r.g)
		}
		for pos := 0; pos < n; pos++ {
			r.eval(pos, r.seq)
		}
		return r.out[:n]
	}
	r.wg.Add(n)
	for pos := 0; pos < n; pos++ {
		r.jobs <- pos
	}
	r.wg.Wait()
	return r.out[:n]
}

// Close releases the worker pool. The runner must not be used afterwards;
// Close is idempotent.
func (r *BatchRunner) Close() {
	if r.jobs != nil {
		close(r.jobs)
		r.jobs = nil
	}
}
