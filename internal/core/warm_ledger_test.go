package core

import (
	"hash/fnv"
	"math"
	"testing"

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
		{"ip", RoutingIP, 0, 0x3d69636f60b56d7a},
		{"arbitrary", RoutingArbitrary, 0, 0x997813ddf95116cf},
		{"ip-cold", RoutingIP, -1, 0x1b5c8a96237b7b31},
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
	t.Helper()
	r := rng.New(91)
	net, err := topology.Waxman(topology.DefaultWaxman(30), r)
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph
	perm := r.Perm(30)
	memberSets := [][]graph.NodeID{
		perm[0:4], perm[4:7], perm[7:10], perm[10:15], perm[15:18], perm[18:22], perm[22:25],
	}
	w, err := NewWarm(g, mode, nil, WarmOptions{Epsilon: 0.1, RepairPhaseBudget: budget, SolverOptions: SolverOptions{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	ledger := func() {
		for _, v := range w.gk.d.Values() {
			word(math.Float64bits(v))
		}
	}
	join := func(slot int) {
		s, err := overlay.NewSession(slot, memberSets[slot], float64(1+slot%3))
		if err != nil {
			t.Fatal(err)
		}
		var o overlay.TreeOracle
		if mode == RoutingArbitrary {
			o, err = overlay.NewArbitraryOracle(g, s)
		} else {
			o, err = overlay.NewFixedOracle(g, routing.NewIPRoutes(g, s.Members), s)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Join(s, o); err != nil {
			t.Fatal(err)
		}
	}
	leave := func(slot int) {
		if err := w.Leave(slot); err != nil {
			t.Fatal(err)
		}
		if budget >= 0 {
			ledger()
		}
	}
	snap := func() {
		sol, err := w.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		ledger()
		for i := range sol.Sessions {
			for _, tf := range sol.Flows[i] {
				word(tf.Tree.KeyHash())
				word(math.Float64bits(tf.Rate))
			}
		}
	}

	for slot := 0; slot < 4; slot++ {
		join(slot)
	}
	snap() // cold anchor
	join(4)
	join(5)
	snap() // warm catch-up of two joins
	leave(1)
	leave(4)
	snap()
	join(6)
	leave(6) // pending join: no rollback
	leave(0)
	snap()
	return h.Sum64(), w.Stats()
}
