package overlay

import (
	"overcast/internal/graph"
	"overcast/internal/routing"
)

// Plane is a shared store of single-source shortest-path (SSSP) rows — one
// Dijkstra distance/parent array pair per source node — computed under a
// length snapshot and read by many consumers. It exists because the paper's
// Sec. V arbitrary-routing oracle runs one Dijkstra per session member per
// MinTree call, while the batched phase rounds (PR 3) evaluate every pending
// session under a *single* length snapshot: when Zipf node popularity puts
// the same hot nodes in many sessions, the per-session oracles recompute
// identical SSSP trees dozens of times per round. Staging the union of the
// round's member sources on a plane converts that O(sessions x members)
// Dijkstra cost into O(distinct members).
//
// Since the length-ledger refactor the plane is additionally *persistent*
// across rounds: rows carry the ledger epoch they were filled at
// (FillEpoch/SetFillEpoch), and a batch driver holding a graph.LengthStore
// can prove a stored row is still exact without recomputing it — see
// BatchRunner's dirty-source repair. The proof obligation lives with the
// driver; the plane itself only stores the rows and their epochs.
//
// Determinism: a row's content is a pure function of (graph, source, length
// snapshot) — DijkstraScratch.ShortestPathsInto has deterministic tie-breaks
// and no shared mutable state — so distances and parent edges are bitwise
// identical whether a row is filled by stage-1 plane workers, by the
// sequential path, or inside a plane-oblivious MinTreeWith call. Neither
// the plane mode nor the worker count can therefore change solver outputs.
//
// Lifecycle (one-shot consumers like the churn prefabrication): Reset, Stage
// each source, FillRow every row, then read via Lookup. Staging is a
// single-goroutine operation; FillRow may run concurrently for distinct
// rows. Once filled, the plane is safe for any number of concurrent readers
// until the next mutation. Row storage is pooled across Reset cycles, so a
// round-loop reuses its buffers.
type Plane struct {
	g *graph.Graph
	// rowOf maps a node id to its row index in the current cycle (-1 when the
	// node is not staged). Only entries named by sources are ever non-negative,
	// so Reset clears in O(staged sources), not O(nodes).
	rowOf   []int32
	sources []graph.NodeID
	dists   [][]float64
	parents [][]graph.EdgeID
	// fillEpoch[row] is the ledger epoch the row's content corresponds to;
	// maintained by the batch runner (FillRow leaves it to the caller,
	// which knows which ledger — if any — the lengths came from).
	fillEpoch []graph.Epoch
	// valid[row] marks the batch stamp the row was last filled or proven
	// current at; Lookup serves only rows validated in the current stamp, so
	// stale persistent rows can never leak into an oracle read.
	valid []uint32
	// refStamp[row] marks the batch stamp the row was last referenced at, so
	// Reference deduplicates within a batch in O(1).
	refStamp []uint32
	stamp    uint32

	// exact[row] reports whether the row's stored content is exactly what a
	// fresh fill would produce: true after every content write, false once a
	// read-path skip left unread parts of the row stale. Subtree repair seeds
	// its resumed heap from the row's frontier distances, so the batch driver
	// only repairs exact rows.
	exact []bool
	// maxDist[row] is the largest finite stored distance in the row (0 when
	// nothing reachable), maintained by every content write. It is the row
	// side of the subtree-repair scale-separation certificate: repair is
	// bit-exact only while every edge length exceeds the largest distance by
	// enough that float addition strictly grows every key (see
	// graph.LengthStore.MinLengthLB and rowScaleSafe).
	maxDist []float64
}

// NewPlane returns an empty plane over g. Row storage grows on first use and
// is retained across Reset cycles.
func NewPlane(g *graph.Graph) *Plane {
	rowOf := make([]int32, g.NumNodes())
	for i := range rowOf {
		rowOf[i] = -1
	}
	return &Plane{g: g, rowOf: rowOf, stamp: 1}
}

// Reset forgets every staged source, keeping row storage for reuse.
func (p *Plane) Reset() {
	for _, s := range p.sources {
		p.rowOf[s] = -1
	}
	p.sources = p.sources[:0]
}

// BeginBatch opens a new validation stamp: rows validated before this call
// stop being served by Lookup until revalidated (Validate) or refilled.
// Persistent drivers call it once per batch; one-shot consumers never need
// it (FillRow validates under the current stamp).
func (p *Plane) BeginBatch() {
	p.stamp++
	if p.stamp == 0 { // wrapped: no row may claim validity by accident
		for i := range p.valid {
			p.valid[i] = 0
		}
		p.stamp = 1
	}
}

// Stage registers src as a source, assigning it the next row, and reports
// whether it was new (false = already staged, the deduplication hit). Rows
// are assigned in first-staging order, which callers keep deterministic by
// staging in a canonical order. New rows start invalid with FillEpoch -1.
func (p *Plane) Stage(src graph.NodeID) bool {
	if p.rowOf[src] >= 0 {
		return false
	}
	row := len(p.sources)
	if row == len(p.dists) {
		n := p.g.NumNodes()
		p.dists = append(p.dists, make([]float64, n))
		p.parents = append(p.parents, make([]graph.EdgeID, n))
		p.fillEpoch = append(p.fillEpoch, -1)
		p.valid = append(p.valid, 0)
		p.refStamp = append(p.refStamp, 0)
		p.exact = append(p.exact, false)
		p.maxDist = append(p.maxDist, 0)
	}
	p.rowOf[src] = int32(row)
	p.sources = append(p.sources, src)
	p.fillEpoch[row] = -1
	p.valid[row] = 0
	p.refStamp[row] = p.stamp
	p.exact[row] = false
	p.maxDist[row] = 0
	return true
}

// Reference stages src if needed and reports its row plus whether this is
// the first reference within the current batch stamp — the batch driver's
// O(1) within-batch deduplication.
func (p *Plane) Reference(src graph.NodeID) (row int, first bool) {
	if p.rowOf[src] < 0 {
		p.Stage(src)
		return int(p.rowOf[src]), true
	}
	row = int(p.rowOf[src])
	if p.refStamp[row] == p.stamp {
		return row, false
	}
	p.refStamp[row] = p.stamp
	return row, true
}

// Row returns src's row index, or -1 if not staged.
func (p *Plane) Row(src graph.NodeID) int {
	return int(p.rowOf[src])
}

// Source returns the source node of row.
func (p *Plane) Source(row int) graph.NodeID { return p.sources[row] }

// NumSources returns the number of staged sources.
func (p *Plane) NumSources() int { return len(p.sources) }

// FillEpoch returns the ledger epoch row was filled at (-1 = never filled).
func (p *Plane) FillEpoch(row int) graph.Epoch { return p.fillEpoch[row] }

// SetFillEpoch records the ledger epoch row's content corresponds to. The
// batch driver advances it both on refill and when a repair check proves the
// content unchanged up to the current epoch.
func (p *Plane) SetFillEpoch(row int, epoch graph.Epoch) { p.fillEpoch[row] = epoch }

// Validate marks row as current for the present stamp without refilling it —
// the repair fast path, only sound when the driver has proven the stored
// content equals what a fresh fill would produce.
func (p *Plane) Validate(row int) { p.valid[row] = p.stamp }

// ParentRow returns row's stored parent-edge array (the SSSP tree rooted at
// its source), for the driver's dirty-source intersection checks. The slice
// is plane-owned and must not be mutated.
func (p *Plane) ParentRow(row int) []graph.EdgeID { return p.parents[row] }

// FillRow computes row's SSSP arrays under d with sp's pooled heap and marks
// the row valid for the current stamp. Distinct rows may be filled
// concurrently (each touches only its own arrays); sp must be private to the
// calling goroutine. Validity stamps are written here (not content): each
// row's stamp slot is row-private, so concurrent fills do not race.
func (p *Plane) FillRow(row int, d graph.Lengths, sp *routing.DijkstraScratch) {
	sp.ShortestPathsInto(p.g, p.sources[row], d, p.dists[row], p.parents[row])
	p.maxDist[row] = maxFiniteDist(p.dists[row])
	p.valid[row] = p.stamp
}

// unreachableDist mirrors the routing package's unreachable sentinel: stored
// distances are either strictly below it (reachable) or exactly it.
const unreachableDist = 1e308

func maxFiniteDist(dist []float64) float64 {
	m := 0.0
	for _, v := range dist {
		if v > m && v < unreachableDist {
			m = v
		}
	}
	return m
}

// RepairRow incrementally repairs row's stored SSSP arrays under d by
// resuming Dijkstra over the stored subtrees below roots
// (routing.RepairSubtreesInto — the batch driver supplies the dirty roots,
// read from the ledger journal, and certifies the bit-identity
// preconditions), falling back to a full FillRow when the repair bails.
// minLen is the ledger's MinLengthLB: the driver gates repair on the
// scale-separation certificate against the distances the row held *before*
// the repair, but resettled subtrees only grow, so the certificate is
// re-checked here against the post-repair distances and the fallback refill
// runs if the grown row broke it. Either way the row ends valid for the
// current stamp and bitwise identical to a fresh fill. It returns the repaired node set appended to out and whether
// the subtree path succeeded (false = the fallback refill ran). Concurrency
// contract is FillRow's: distinct rows may repair concurrently, sp must be
// goroutine-private.
func (p *Plane) RepairRow(row int, d graph.Lengths, sp *routing.DijkstraScratch, minLen float64, roots, out []graph.NodeID) ([]graph.NodeID, bool) {
	repaired, ok := sp.RepairSubtreesInto(p.g, p.sources[row], d, p.dists[row], p.parents[row], roots, out)
	if ok {
		m := p.maxDist[row]
		for _, v := range repaired {
			if dv := p.dists[row][v]; dv > m && dv < unreachableDist {
				m = dv
			}
		}
		if scaleSafe(minLen, m) {
			p.maxDist[row] = m
		} else {
			ok = false
		}
	}
	if !ok {
		sp.ShortestPathsInto(p.g, p.sources[row], d, p.dists[row], p.parents[row])
		p.maxDist[row] = maxFiniteDist(p.dists[row])
	}
	p.valid[row] = p.stamp
	return repaired, ok
}

// scaleSafe is the scale-separation certificate: with every edge length at
// least minLen and every relevant key at most maxDist, minLen > maxDist*2^-50
// keeps each length at least a few ulps of any key it is added to, so every
// relaxation strictly grows its float key. That restores the equal-key
// determinism argument (routing.RepairSubtreesInto, step 3) that strict
// positivity alone cannot give: a length below half an ulp of a distance
// rounds away (dist+len == dist bitwise) and behaves like a zero-length edge.
func scaleSafe(minLen, maxDist float64) bool {
	return minLen > maxDist*0x1p-50
}

// Lookup returns the SSSP row rooted at src, or ok=false when src is not
// staged or its row has not been filled/validated under the current stamp
// (so persistent-but-stale rows never serve a read). The returned slices are
// plane-owned: valid until the row is next refilled and must not be mutated.
func (p *Plane) Lookup(src graph.NodeID) (dist []float64, parent []graph.EdgeID, ok bool) {
	row := p.rowOf[src]
	if row < 0 || p.valid[row] != p.stamp {
		return nil, nil, false
	}
	return p.dists[row], p.parents[row], true
}

// PlaneStats aggregates shared-SSSP-plane counters over a consumer's
// lifetime (a BatchRunner's rounds, a churn prefabrication pass, an
// allocator's anchors, warm repair and online joins). The interesting
// ratios: Dedup — how many per-member SSSP reads each *computed* Dijkstra
// row served; and RepairRate — how often cross-round dirty-source repair
// avoided a full-row Dijkstra.
type PlaneStats struct {
	// Rounds counts batch rounds that staged at least one plane row.
	Rounds int
	// Sources counts SSSP rows actually computed by Dijkstra (first fills
	// plus repairs, summed over rounds) — the misses.
	Sources int
	// Requests counts per-member SSSP reads served from the plane (every
	// member of every plane-aware oracle evaluated in a round).
	Requests int
	// Repaired counts full refills forced by the dirty-source check: a
	// ledger-touched edge intersected the row's stored SSSP tree, so the row
	// was recomputed. A subset of Sources.
	Repaired int
	// Skipped counts refills avoided across rounds: the ledger proved no
	// touched edge could alter the row, so the stored content was served
	// as-is (no Dijkstra at all).
	Skipped int
	// SubtreeRepaired counts rows repaired by subtree-scoped Dijkstra
	// resumption (routing.RepairSubtreesInto) instead of a full refill: only
	// the stored subtrees below the touched tree edges were recomputed, the
	// rest of the row was certified bitwise exact in place. Counted toward
	// Sources (a resumed Dijkstra still ran), disjoint from Repaired (full
	// refills, including subtree bail-outs).
	SubtreeRepaired int
	// SubtreeNodes sums the invalidated-subtree sizes |S| over all subtree
	// repairs; SubtreeNodes/SubtreeRepaired is the mean repaired-region
	// size.
	SubtreeNodes int
	// TreeHits is always 0; kept only because the benchmark harness
	// (bench/main.go) reads it.
	TreeHits int
	// NonMonotoneRefills counts rows degraded from the skip/repair fast path
	// to a full refill because the ledger reported a non-monotone window
	// (MonotoneSince=false): some length shrank since the row's fill epoch —
	// an underlay recovery or drift-down mirrored into the ledger — so the
	// stored SSSP tree cannot be proven exact by touched-edge intersection
	// alone and is recomputed from scratch.
	NonMonotoneRefills int
}

// Dedup returns Requests/Sources, the average number of oracle member reads
// served per Dijkstra computed (1 when the plane never fired).
func (m PlaneStats) Dedup() float64 {
	if m.Sources == 0 {
		return 1
	}
	return float64(m.Requests) / float64(m.Sources)
}

// HitRate returns the fraction of member reads that did not trigger a
// Dijkstra: 1 - Sources/Requests (0 when the plane never fired).
func (m PlaneStats) HitRate() float64 {
	if m.Requests == 0 {
		return 0
	}
	return 1 - float64(m.Sources)/float64(m.Requests)
}

// RepairRate returns the fraction of cross-round row revalidations resolved
// without a full-row Dijkstra — skipped outright or subtree-repaired:
// (Skipped+SubtreeRepaired)/(Skipped+SubtreeRepaired+Repaired) (0 when
// repair never ran). Subtree repairs count as resolved — the full refill
// was avoided — even though a partial Dijkstra ran.
func (m PlaneStats) RepairRate() float64 {
	resolved := m.Skipped + m.SubtreeRepaired
	if resolved+m.Repaired == 0 {
		return 0
	}
	return float64(resolved) / float64(resolved+m.Repaired)
}

// Merge adds o's counters into m (for folding per-subsolve counters into an
// aggregate, e.g. the MCF beta prestep's per-session MaxFlows).
func (m *PlaneStats) Merge(o PlaneStats) {
	m.Rounds += o.Rounds
	m.Sources += o.Sources
	m.Requests += o.Requests
	m.Repaired += o.Repaired
	m.Skipped += o.Skipped
	m.SubtreeRepaired += o.SubtreeRepaired
	m.SubtreeNodes += o.SubtreeNodes
	m.NonMonotoneRefills += o.NonMonotoneRefills
}
