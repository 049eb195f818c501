package core

import (
	"fmt"
	"math"

	"overcast/internal/graph"
	"overcast/internal/overlay"
)

// gkState is the Garg–Könemann state that MaxFlow, MaxConcurrentFlow and the
// Warm allocator share: the length ledger, the dual objective D, every
// session's accumulated raw flow, and optionally the per-session log of tree
// applications that lets Warm roll a session's length inflation back
// exactly. apply is the only place a tree application changes any of them,
// so the cold loops and warm repair agree bit for bit on its effect.
type gkState struct {
	g    *graph.Graph
	eps  float64
	d    *graph.LengthStore
	bigD float64      // dual objective D = Σ_e c_e·d_e
	raw  [][]TreeFlow // per session: distinct trees, pre-scale rates, first-use order
	// index[i] maps a tree's KeyHash to its position in raw[i]; nil until
	// the next add to session i, which builds it from raw[i].
	index []map[uint64]int
	logs  []applyLog // per session; set only by a Warm anchor, nil otherwise
	ops   int        // oracle calls
	// cert, set by a MaxConcurrentFlow phase loop, holds the original demand
	// of every session it routes (0 for any other index); dualBound is then
	// the least D/Σ_i cert[i]·len_i over the phases' first rounds, where
	// every routed session is pending. Weak duality on the M2 LP bounds
	// lambda* by that ratio under any lengths, since the oracle's tree is a
	// minimum one, so reading it costs no extra oracle call. Phases run with
	// cert set must route every session it weighs.
	cert      []float64
	dualBound float64

	// Reused phase scratch.
	rem     []float64
	pending []int
}

func newGKState(g *graph.Graph, eps float64, d *graph.LengthStore, k int) *gkState {
	return &gkState{g: g, eps: eps, d: d, raw: make([][]TreeFlow, k), index: make([]map[uint64]int, k)}
}

// add accrues rate onto tree t of session i, deduplicating by KeyHash (the
// string Key would allocate per call), and returns its position in raw[i].
func (s *gkState) add(i int, t *overlay.Tree, rate float64) int {
	idx := s.index[i]
	if idx == nil {
		idx = make(map[uint64]int, len(s.raw[i]))
		for pos, tf := range s.raw[i] {
			idx[tf.Tree.KeyHash()] = pos
		}
		s.index[i] = idx
	}
	key := t.KeyHash()
	if pos, ok := idx[key]; ok {
		s.raw[i][pos].Rate += rate
		return pos
	}
	pos := len(s.raw[i])
	idx[key] = pos
	s.raw[i] = append(s.raw[i], TreeFlow{Tree: t, Rate: rate})
	return pos
}

// apply routes rate c on tree t of session i: it accrues the flow, inflates
// every edge of t by bumpFactor, advances D by the growth of Σ_e c_e·d_e and
// logs the application.
func (s *gkState) apply(i int, t *overlay.Tree, c float64) {
	pos := s.add(i, t, c)
	if s.logs != nil {
		s.logs[i].record(pos, t, c)
	}
	for _, use := range t.Use() {
		ce := s.g.Edges[use.Edge].Capacity
		grow := bumpFactor(s.eps, use.Count, c, ce)
		s.bigD += ce * s.d.At(use.Edge) * (grow - 1)
		s.d.Bump(use.Edge, grow)
	}
}

// phase routes amounts[i] for every session i in ids through one phase of
// batched oracle rounds. Each round queries the pending sessions' minimum trees
// against the current lengths through runner (oracle id == session index),
// then applies them in the listed order, each routing up to its tree's
// bottleneck; a session whose bottleneck is below its remaining amount stays
// pending and gets a fresh tree under the moved lengths next round. When
// stopAtD is set the phase stops as soon as D reaches 1, the Garg–Könemann
// stop criterion. With cert set, the first round also lowers dualBound.
func (s *gkState) phase(runner *overlay.BatchRunner, ids []int, amounts []float64, stopAtD bool) error {
	if len(s.rem) < len(s.raw) {
		s.rem = append(s.rem, make([]float64, len(s.raw)-len(s.rem))...)
	}
	s.pending = s.pending[:0]
	for _, i := range ids {
		s.rem[i] = amounts[i]
		s.pending = append(s.pending, i)
	}
	pending := s.pending
	certify := s.cert != nil
	for len(pending) > 0 && (!stopAtD || s.bigD < 1) {
		var results []overlay.BatchResult
		if certify {
			results = runner.MinTreesLen(s.d, pending)
			s.noteDualBound(pending, results)
			certify = false
		} else {
			results = runner.MinTrees(s.d, pending)
		}
		s.ops += len(pending)
		// next reuses pending's backing array: position pos is read before
		// any write can reach index pos (one append per processed
		// position), so the in-place filter is safe.
		next := pending[:0]
		for pos := 0; pos < len(pending) && (!stopAtD || s.bigD < 1); pos++ {
			i := pending[pos]
			if results[pos].Err != nil {
				return fmt.Errorf("oracle %d: %w", i, results[pos].Err)
			}
			t := results[pos].Tree
			c := min(s.rem[i], t.Bottleneck(s.g))
			s.apply(i, t, c)
			s.rem[i] -= c
			if s.rem[i] > 1e-15 {
				next = append(next, i)
			}
		}
		pending = next
	}
	return nil
}

// noteDualBound lowers dualBound to D/Σ_i cert[i]·len_i for a round that
// drew every session's minimum tree (ids[j]'s in results[j]) under the
// current lengths.
func (s *gkState) noteDualBound(ids []int, results []overlay.BatchResult) {
	sum := 0.0
	for j, r := range results {
		if r.Err != nil {
			return
		}
		sum += s.cert[ids[j]] * r.Len
	}
	if sum > 0 {
		s.dualBound = min(s.dualBound, s.bigD/sum)
	}
}

// phaseBudget is the Lemma 6 phase bound of one demand-doubling round over m
// edges: t <= 1 + lambda·log_{1+eps}(1/delta) with log_{1+eps}(1/delta) =
// (1/eps)·log_{1+eps}(m/(1-eps)), so phases stop within 2·log_{1+eps}(1/delta)
// while lambda_scaled <= 2 (2.5 allows slack for a demand scale that is
// only approximate: the prestep's MaxFlow betas are within (1-eps)^2).
func phaseBudget(m int, eps float64) int {
	return int(2.5*math.Log(float64(m)/(1-eps))/math.Log(1+eps)/eps) + 2
}

// bumpFactor is the multiplicative length update 1+ε·n·c/c_e of an edge with
// capacity ce that a tree crossing it n times applies when routing rate c.
// gkState.apply and the warm rollback replay both call it, so a replayed
// factor is bitwise the one the loop applied.
func bumpFactor(eps float64, n int, c, ce float64) float64 {
	return 1 + eps*float64(n)*c/ce
}

// treeApply is one tree application in a session's applyLog: the tree's
// edge multiplicities are arena[off:off+n], and it routed rate.
type treeApply struct {
	off, n int32
	rate   float64
}

// applyLog records how one session inflated the lengths, so a warm allocator
// can roll its bumps back exactly on Leave: one treeApply per tree the
// session routed, in application order, over an arena that stores each
// distinct raw tree's Use() once, in first-use order. The log holds no
// pointers, and its size grows with tree applications, not with the edges
// they touch.
type applyLog struct {
	arena []overlay.EdgeUse
	offs  []int32 // raw flow position -> arena offset of its tree's Use()
	apps  []treeApply
}

// record logs that the session routed rate on tree t, held at position pos
// of its raw flows (pos == len(offs) for a tree new to the session).
func (l *applyLog) record(pos int, t *overlay.Tree, rate float64) {
	use := t.Use()
	if pos == len(l.offs) {
		l.offs = append(l.offs, int32(len(l.arena)))
		l.arena = append(l.arena, use...)
	}
	l.apps = append(l.apps, treeApply{off: l.offs[pos], n: int32(len(use)), rate: rate})
}
