package graph

// This file implements the versioned length ledger. The Garg–Könemann loops
// mutate edge lengths multiplicatively on *only the routed trees' edges* each
// iteration, but a bare Lengths slice cannot report what changed, so every
// consumer that caches work keyed on the length function (the shared SSSP
// plane above all) had to rebuild from scratch after every update. A
// LengthStore wraps the flat slice with an epoch counter, a per-edge
// last-touched stamp, and a bounded touched-edge journal, so those consumers
// can ask "what moved since I last looked?" and repair instead of rebuild.

// Epoch is a point in a LengthStore's mutation history. Epoch 0 is the
// store's initial contents; every mutation (Bump or Set) advances the epoch
// by exactly one, so epochs double as a mutation count.
type Epoch = int64

// JournalWindow bounds the touched-edge journal. When the journal outgrows
// the bound its oldest half is discarded (see Touched's ok return); the
// per-edge LastTouched stamps are complete history and are never trimmed, so
// repair consumers falling off the window only lose the journal-replay fast
// path, never correctness (they fall back to LastTouched walks). Exported so
// fault harnesses can size event bursts that deliberately overflow the window
// (forcing the plane's lost-dirt fallback).
const JournalWindow = 1 << 16

const maxJournal = JournalWindow

// LengthStore is a versioned per-edge length assignment d_e — the mutable
// dual variable of the Garg–Könemann framework — that journals its own
// mutations. All reads go through Values/At; all writes go through Bump/Set,
// which advance the epoch and stamp the touched edge. The store additionally
// tracks monotonicity: MonotoneSince reports whether every mutation in an
// epoch range could only have *increased* lengths, the precondition under
// which a cached shortest-path tree that avoids every touched edge is
// provably still exact (see overlay.Plane).
//
// A LengthStore is single-writer: mutations must come from one goroutine,
// with the usual happens-before edges before concurrent readers (the batch
// runner's worker handoff provides them).
type LengthStore struct {
	vals  Lengths
	epoch Epoch
	// lastTouch[e] is the epoch of e's most recent mutation (0 = never
	// touched since construction).
	lastTouch []Epoch
	// lastShrink is the epoch of the most recent mutation that was not a
	// pure growth (a Set, or a Bump with factor < 1). 0 = none.
	lastShrink Epoch
	// journal[i] is the edge mutated at epoch firstEpoch+1+i; the journal is
	// a sliding window over the most recent mutations.
	journal    []EdgeID
	firstEpoch Epoch // epoch represented by the state *before* journal[0]
	// nonPos counts edges whose current length is not strictly positive
	// (zero, negative, or NaN), maintained incrementally so AllPositive is
	// O(1). Strict positivity is the certificate the subtree-repair path
	// needs for pop-order bit-identity (see overlay.BatchRunner).
	nonPos int
	// minLB is a conservative lower bound on every length the ledger has
	// ever held: the running minimum over the initial values and every
	// written value. The true current minimum can be larger (values mostly
	// grow), never smaller. Feeds MinLengthLB, the scale-separation half of
	// the subtree-repair certificate.
	minLB float64
}

// NewLengthStore returns a ledger over g with every edge length init, at
// epoch 0.
func NewLengthStore(g *Graph, init float64) *LengthStore {
	return NewLengthStoreFrom(NewLengths(g, init))
}

// NewLengthStoreFrom wraps vals (taking ownership) as the ledger's epoch-0
// contents.
func NewLengthStoreFrom(vals Lengths) *LengthStore {
	s := &LengthStore{vals: vals, lastTouch: make([]Epoch, len(vals)), minLB: infLen}
	for _, v := range vals {
		if !(v > 0) {
			s.nonPos++
		}
		if v < s.minLB {
			s.minLB = v
		}
	}
	return s
}

// Values returns the live length slice for read-only use (oracle calls, path
// length sums). Mutating it directly bypasses the ledger and breaks every
// consumer keyed on epochs — always write through Bump/Set.
func (s *LengthStore) Values() Lengths { return s.vals }

// At returns d_e.
func (s *LengthStore) At(e EdgeID) float64 { return s.vals[e] }

// Len returns the number of edges.
func (s *LengthStore) Len() int { return len(s.vals) }

// Epoch returns the current epoch (the number of mutations so far).
func (s *LengthStore) Epoch() Epoch { return s.epoch }

// LastTouched returns the epoch of e's most recent mutation (0 = never).
func (s *LengthStore) LastTouched(e EdgeID) Epoch { return s.lastTouch[e] }

// Bump multiplies d_e by factor and journals the touch. The Garg–Könemann
// updates always have factor >= 1; a factor below 1 is legal but marks the
// epoch as non-monotone, which forces full refills on repair-capable
// consumers (shrinking an untouched-tree edge can re-route shortest paths).
func (s *LengthStore) Bump(e EdgeID, factor float64) {
	old := s.vals[e]
	s.vals[e] = old * factor
	s.repos(old, s.vals[e])
	s.touch(e, factor < 1)
}

// Set assigns d_e = v and journals the touch as non-monotone (a wholesale
// assignment can shrink).
func (s *LengthStore) Set(e EdgeID, v float64) {
	s.repos(s.vals[e], v)
	s.vals[e] = v
	s.touch(e, true)
}

// infLen is the sentinel minLB starts from (no length seen yet); it matches
// the routing package's unreachable-distance sentinel.
const infLen = 1e308

// repos maintains the nonPos tally and the minLB running minimum across an
// old -> new value transition. NaN compares false to everything, so it lands
// on the non-positive side of both tests — the conservative direction — and
// never lowers minLB (a NaN length already fails AllPositive, the gate that
// matters).
func (s *LengthStore) repos(old, new float64) {
	op, np := old > 0, new > 0
	if op && !np {
		s.nonPos++
	} else if !op && np {
		s.nonPos--
	}
	if new < s.minLB {
		s.minLB = new
	}
}

// AllPositive reports whether every edge length is currently strictly
// positive (> 0; NaN counts as not positive). O(1): the tally is maintained
// by every mutation. It is the extra certificate subtree repair needs beyond
// MonotoneSince: with strictly positive lengths every settled node's winning
// parent pops at a strictly smaller key, so a resumed Dijkstra whose heap is
// seeded with the whole intact frontier reproduces the full run's (key, id)
// pop order — and therefore its tie-broken parent choices — exactly. Zero-
// length edges would let a late-discovered equal-key node pop in a different
// relative position and flip a tie.
func (s *LengthStore) AllPositive() bool { return s.nonPos == 0 }

// MinLengthLB returns a conservative lower bound on the current minimum edge
// length: the running minimum over every value the ledger has ever held. It
// is the scale-separation half of the subtree-repair certificate: strict
// positivity alone does not make float keys strictly increase — an edge whose
// length is below half an ulp of an accumulated distance rounds away
// (dist + len == dist bitwise) and behaves exactly like a zero-length edge,
// so equal-key pops can interleave differently between a resumed and a fresh
// Dijkstra. Repair-capable consumers therefore also require
// MinLengthLB() > maxRowDist * 2^-50, which guarantees every relaxation
// strictly grows its key (see overlay.Plane). The bound is conservative:
// values mostly grow, so the true minimum may be larger and the consumer
// falls back to a full refill more often than strictly necessary — never
// less.
func (s *LengthStore) MinLengthLB() float64 { return s.minLB }

func (s *LengthStore) touch(e EdgeID, shrink bool) {
	s.epoch++
	s.lastTouch[e] = s.epoch
	if shrink {
		s.lastShrink = s.epoch
	}
	if len(s.journal) >= maxJournal {
		half := len(s.journal) / 2
		s.firstEpoch += Epoch(half)
		s.journal = s.journal[:copy(s.journal, s.journal[half:])]
	}
	s.journal = append(s.journal, e)
}

// MonotoneSince reports whether every mutation after epoch `since` was a
// pure growth (Bump with factor >= 1). It needs no journal history, so it is
// exact for any since.
func (s *LengthStore) MonotoneSince(since Epoch) bool { return s.lastShrink <= since }

// TouchedCount returns the number of mutations after epoch `since` (counting
// repeat touches of one edge individually).
func (s *LengthStore) TouchedCount(since Epoch) Epoch { return s.epoch - since }

// ForEachTouched calls fn for every journal entry after epoch `since`, in
// mutation order (an edge mutated twice appears twice), stopping early when
// fn returns true. It reports whether the journal still covers that range;
// ok=false means the range is unanswerable — history older than the journal
// window, or a `since` from the future (e.g. an epoch taken from a different
// ledger) — and the caller must assume everything moved. This is the repair hot path: the
// plane's dirty-source check replays the window against a row's stored
// parent tree (stopping at the first tree hit) before falling back to
// per-path LastTouched walks.
func (s *LengthStore) ForEachTouched(since Epoch, fn func(EdgeID) (stop bool)) (ok bool) {
	if since < s.firstEpoch || since > s.epoch {
		return false
	}
	for _, e := range s.journal[since-s.firstEpoch:] {
		if fn(e) {
			break
		}
	}
	return true
}

// Touched returns the distinct edges mutated after epoch `since`, in
// first-touch order. ok=false means the journal window no longer covers
// `since` (see ForEachTouched). It allocates; it is a diagnostic/test API,
// not the hot path (hot consumers use LastTouched stamps or ForEachTouched).
func (s *LengthStore) Touched(since Epoch) (edges []EdgeID, ok bool) {
	if since < s.firstEpoch || since > s.epoch {
		return nil, false
	}
	seen := make(map[EdgeID]bool)
	for _, e := range s.journal[since-s.firstEpoch:] {
		if !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	return edges, true
}
