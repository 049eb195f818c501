package overlay

import "overcast/internal/graph"

// This file implements the plane's inverted edge->rows index and the per-row
// pending-dirt state it feeds — the classification side of subtree repair.
// With the index enabled, the batch driver replays the ledger journal ONCE
// per batch (BatchRunner.stagePlane) and fans each touched edge to exactly
// the rows whose stored parent tree uses it, in O(touched x affected rows),
// instead of replaying the journal per referenced row. What accumulates per
// row is not just a dirty bit but the dirty subtree *roots* (the child
// endpoints of touched tree edges), which is precisely the input
// routing.RepairSubtreesInto needs.
//
// Entries are self-validating: a (row, child) entry under edge e is live iff
// parents[row][child] == e right now. That makes the index append-only —
// fills and subtree repairs append entries for the parent edges they write
// and never hunt down the entries they obsolete (a row-version scheme would
// wrongly kill still-live entries on a partial subtree update). Dead and
// duplicate entries are skipped lazily by MarkTouched and garbage-collected
// wholesale by an amortized rebuild once the appended volume outgrows twice
// the live bound.

// maxDirtyRoots caps a row's pending dirty-root list. A batch that touches
// more stored subtrees than this in one row usually means the subtree walk
// will bail on size anyway; past the cap the row latches dirtyLost and
// classifies by the conservative target-walk path until its next content
// write. The cap only bounds scratch memory (nested roots dedup in the walk),
// so it sits well above typical root counts — on the livestream workload,
// where one routed tree bump dirties most rows, the old cap of 64 forced a
// fifth of all revalidations straight to refill.
const maxDirtyRoots = 256

// planeIdxRef is one inverted-index entry: row's stored parent tree reaches
// child through the edge this entry is filed under.
type planeIdxRef struct {
	row   int32
	child int32
}

type planeIndex struct {
	// edgeRows[e] lists the (row, child) pairs whose stored parent edge is —
	// or once was — e; see the self-validation contract above.
	edgeRows [][]planeIdxRef
	// appends counts entries appended since the last rebuild, the GC trigger.
	appends int
}

// EnableIndex allocates the inverted edge->rows index (idempotent). The batch
// driver enables it together with repair; one-shot plane consumers never pay
// for it.
func (p *Plane) EnableIndex() {
	if p.idx == nil {
		p.idx = &planeIndex{edgeRows: make([][]planeIdxRef, p.g.NumEdges())}
	}
}

// MarkTouched fans one ledger touch of edge e to every row whose stored
// parent tree currently uses e, recording the child endpoint as a pending
// dirty subtree root. Dead entries (the stored parent moved on) are skipped
// by the self-validation probe. No-op when the index is disabled.
func (p *Plane) MarkTouched(e graph.EdgeID) {
	if p.idx == nil {
		return
	}
	for _, ref := range p.idx.edgeRows[e] {
		row, child := int(ref.row), int(ref.child)
		if p.parents[row][child] != e {
			continue
		}
		p.addDirty(row, graph.NodeID(child))
	}
}

func (p *Plane) addDirty(row int, child graph.NodeID) {
	if p.dirtyLost[row] {
		return
	}
	roots := p.dirtyRoots[row]
	if len(roots) >= maxDirtyRoots {
		p.dirtyLost[row] = true
		return
	}
	// Duplicates (the same edge touched twice in the window, or a duplicate
	// index entry) are tolerated: the repair's subtree walk deduplicates via
	// its visited marks, and dupes only consume cap headroom.
	p.dirtyRoots[row] = append(roots, child)
}

// dirtyNew reports whether row has pending dirt — dirty roots recorded since
// the last time its dirt was consumed, or an unknowable window (dirtyLost).
// False means no touched edge has entered the row's stored tree since the
// row's dirt was last consumed, the O(1) skip certificate.
func (p *Plane) dirtyNew(row int) bool {
	return p.dirtyLost[row] || len(p.dirtyRoots[row]) > 0
}

// clearDirty resets row's dirt state after it was consumed: by a content
// write (fill or subtree repair) that made the stored content
// exact again, or by a successful target-walk validation (which verifies
// every read path clean up to the walk epoch — and read paths are a subset
// of the stored tree the index watches, so pending dirt carries no further
// information for a serviceable row).
func (p *Plane) clearDirty(row int) {
	p.dirtyRoots[row] = p.dirtyRoots[row][:0]
	p.dirtyLost[row] = false
}

// loseAllDirty latches every staged row onto the conservative classification
// path: the journal window no longer covers the driver's walk position, so
// per-row pending dirt is unknowable until the row's next content write.
func (p *Plane) loseAllDirty() {
	for row := range p.sources {
		p.dirtyLost[row] = true
	}
}

// rowExact reports whether row's stored content is exactly what a fresh fill
// would produce (true after every content write, false once a target-walk
// skip left unread parts of the row stale). Subtree repair seeds its resumed
// heap from the row's frontier distances, so it is only sound on exact rows.
func (p *Plane) rowExact(row int) bool { return p.exact[row] }

func (p *Plane) setExact(row int, v bool) { p.exact[row] = v }

// indexRow appends index entries for every parent edge of row's stored tree
// (after a full fill).
func (p *Plane) indexRow(row int) {
	if p.idx == nil {
		return
	}
	for v, e := range p.parents[row] {
		if e >= 0 {
			p.idx.add(e, row, v)
		}
	}
	p.maybeRebuildIndex()
}

// indexNodes appends index entries for the given nodes' parent edges (after a
// subtree repair rewrote exactly those nodes).
func (p *Plane) indexNodes(row int, nodes []graph.NodeID) {
	if p.idx == nil {
		return
	}
	parents := p.parents[row]
	for _, v := range nodes {
		if e := parents[v]; e >= 0 {
			p.idx.add(e, row, v)
		}
	}
	p.maybeRebuildIndex()
}

func (ix *planeIndex) add(e graph.EdgeID, row, child int) {
	ix.edgeRows[e] = append(ix.edgeRows[e], planeIdxRef{row: int32(row), child: int32(child)})
	ix.appends++
}

func (ix *planeIndex) clear() {
	for i := range ix.edgeRows {
		ix.edgeRows[i] = ix.edgeRows[i][:0]
	}
	ix.appends = 0
}

// maybeRebuildIndex garbage-collects dead and duplicate entries by rebuilding
// the index from the stored parent trees once the appended volume outgrows
// twice the live bound (sources x (n-1) live entries at most). Amortized: a
// rebuild costs one pass over the rows that were appended to get here.
func (p *Plane) maybeRebuildIndex() {
	if p.idx.appends <= 2*len(p.sources)*p.g.NumNodes()+1024 {
		return
	}
	p.rebuildIndex()
}

// rebuildIndex reconstructs the index from scratch: exactly one entry per
// live (row, child) pair. Pending dirt state is untouched — it tracks ledger
// history, not index shape. The append counter restarts at zero so the next
// GC triggers only after post-rebuild appends outgrow the live bound again —
// counting the rebuild's own (all-live) entries would re-trigger at half the
// intended garbage ratio.
func (p *Plane) rebuildIndex() {
	p.idx.clear()
	for row := range p.sources {
		for v, e := range p.parents[row] {
			if e >= 0 {
				p.idx.add(e, row, v)
			}
		}
	}
	p.idx.appends = 0
}
