package core

import (
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
	"weak"

	"overcast/internal/graph"
	"overcast/internal/overlay"
	"overcast/internal/rng"
	"overcast/internal/routing"
	"overcast/internal/topology"
)

// TestWarmLedgerFingerprint pins the exact float64 bits of the warm length
// ledger and of the snapshot rates along a scripted churn sequence: anchor,
// warm joins, refresh, leaves of an anchored and of a warm-joined session, a
// join+leave between refreshes, and the refreshes after them. A change to the
// rollback replay or the bump arithmetic that drifts even one ulp fails here,
// not only in the detdump diff. The third refresh is an amortized cold
// re-anchor whose dense session ids differ from the slots, so the last one
// repairs warm onto flows adopted under remapped ids.
//
// With a negative repair budget every refresh is a cold re-anchor that
// discards the ledger, so that variant hashes only post-refresh state: the
// ledger between a leave and the next refresh is not part of its contract.
func TestWarmLedgerFingerprint(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mode   RoutingMode
		budget int
		want   uint64
	}{
		{"ip", RoutingIP, 0, 0x52579d59551891b9},
		{"arbitrary", RoutingArbitrary, 0, 0x08bcc568073131eb},
		{"ip-cold", RoutingIP, -1, 0x676926302b74b4af},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, st := warmLedgerFingerprint(t, tc.mode, tc.budget)
			if tc.budget >= 0 && st.WarmRefreshes == 0 {
				t.Fatalf("stats %+v: the script never took the warm path", st)
			}
			if got != tc.want {
				t.Fatalf("ledger/rate fingerprint %#016x, want %#016x (stats %+v)", got, tc.want, st)
			}
		})
	}
}

func warmLedgerFingerprint(t *testing.T, mode RoutingMode, budget int) (uint64, WarmStats) {
	c := newWarmChurn(t, mode, budget)
	defer c.w.Close()
	for slot := 0; slot < 4; slot++ {
		c.join(slot)
	}
	c.snap() // cold anchor
	c.join(4)
	c.join(5)
	c.snap() // warm catch-up of two joins
	c.leave(1)
	c.leave(4)
	c.snap()
	c.join(6)
	c.leave(6) // pending join: no rollback
	c.leave(0)
	c.snap()
	return c.h.Sum64(), c.w.Stats()
}

// warmChurn drives a scripted churn sequence over seven fixed member sets on
// a 30-node Waxman graph and hashes the warm ledger and snapshot state along
// the way: the ledger after every leave (unless every refresh re-anchors
// cold), and the ledger plus every snapshot tree's key and rate after every
// snapshot. alive[slot] weakly tracks the oracle each join handed over.
type warmChurn struct {
	t      *testing.T
	g      *graph.Graph
	mode   RoutingMode
	budget int
	sets   [][]graph.NodeID
	w      *Warm
	h      hash.Hash64
	alive  map[int]func() bool // slot -> is its oracle still reachable
}

func newWarmChurn(t *testing.T, mode RoutingMode, budget int) *warmChurn {
	t.Helper()
	r := rng.New(91)
	net, err := topology.Waxman(topology.DefaultWaxman(30), r)
	if err != nil {
		t.Fatal(err)
	}
	perm := r.Perm(30)
	w, err := NewWarm(net.Graph, WarmOptions{Epsilon: 0.1, RepairPhaseBudget: budget, SolverOptions: SolverOptions{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return &warmChurn{
		t: t, g: net.Graph, mode: mode, budget: budget, w: w, h: fnv.New64a(),
		sets: [][]graph.NodeID{
			perm[0:4], perm[4:7], perm[7:10], perm[10:15], perm[15:18], perm[18:22], perm[22:25],
		},
		alive: map[int]func() bool{},
	}
}

func (c *warmChurn) word(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	c.h.Write(b[:])
}

func (c *warmChurn) ledger() {
	for _, v := range c.w.gk.d.Values() {
		c.word(math.Float64bits(v))
	}
}

func (c *warmChurn) join(slot int) {
	c.t.Helper()
	s, err := overlay.NewSession(slot, c.sets[slot], float64(1+slot%3))
	if err != nil {
		c.t.Fatal(err)
	}
	var o overlay.TreeOracle
	if c.mode == RoutingArbitrary {
		ao, err := overlay.NewArbitraryOracle(c.g, s)
		if err != nil {
			c.t.Fatal(err)
		}
		o, c.alive[slot] = ao, reachable(ao)
	} else {
		fo, err := overlay.NewFixedOracle(c.g, routing.NewIPRoutes(c.g, s.Members), s)
		if err != nil {
			c.t.Fatal(err)
		}
		o, c.alive[slot] = fo, reachable(fo)
	}
	if err := c.w.Join(s, o); err != nil {
		c.t.Fatal(err)
	}
}

// reachable returns a probe that reports whether p is still reachable; it
// holds p only weakly.
func reachable[T any](p *T) func() bool {
	wp := weak.Make(p)
	return func() bool { return wp.Value() != nil }
}

func (c *warmChurn) leave(slot int) {
	c.t.Helper()
	if err := c.w.Leave(slot); err != nil {
		c.t.Fatal(err)
	}
	if c.budget >= 0 {
		c.ledger()
	}
}

func (c *warmChurn) snap() {
	c.t.Helper()
	sol, err := c.w.Snapshot()
	if err != nil {
		c.t.Fatal(err)
	}
	c.ledger()
	for i := range sol.Sessions {
		for _, tf := range sol.Flows[i] {
			c.word(tf.Tree.KeyHash())
			c.word(math.Float64bits(tf.Rate))
		}
	}
}

// TestWarmLeaveReleasesOracle pins the departed-session release: after
// Warm.Leave neither the allocator nor its runner, which the first cold
// anchor creates, holds the slot's oracle (a GC collects it). The script
// leaves four times after that anchor, and the fingerprint of its ledger and
// snapshots is pinned in both routings.
func TestWarmLeaveReleasesOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode RoutingMode
		want uint64
	}{
		{"ip", RoutingIP, 0xc527f0b134e59956},
		{"arbitrary", RoutingArbitrary, 0x722e1cdcade7dc07},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newWarmChurn(t, tc.mode, 0)
			defer c.w.Close()
			released := func(slots ...int) {
				t.Helper()
				runtime.GC()
				for _, slot := range slots {
					if c.w.oracles[slot] != nil || c.alive[slot]() {
						t.Fatalf("slot %d: departed session's oracle still reachable", slot)
					}
				}
			}
			for slot := 0; slot < 5; slot++ {
				c.join(slot)
			}
			c.snap() // cold anchor: creates the runner
			if c.w.runner == nil {
				t.Fatal("no runner after the first cold anchor")
			}
			c.leave(2)
			released(2)
			c.join(5)
			c.snap()
			if c.w.Stats().WarmRefreshes != 1 {
				t.Fatalf("stats %+v: the second snapshot did not repair warm", c.w.Stats())
			}
			c.leave(0)
			c.leave(5)
			released(2, 0, 5)
			c.snap()
			c.join(6)
			c.leave(3)
			released(2, 0, 5, 3)
			c.snap()
			if got := c.h.Sum64(); got != tc.want {
				t.Fatalf("ledger/rate fingerprint %#016x, want %#016x (stats %+v)", got, tc.want, c.w.Stats())
			}
		})
	}
}
