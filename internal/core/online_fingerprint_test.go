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

// TestOnlineLeaveFingerprint pins the exact float64 bits of the online
// allocator's state along a scripted churn sequence: five joins, two leaves
// from the middle, then interleaved joins and leaves. After every event it
// hashes the length ledger, MaxCongestion and every survivor's
// SessionMaxCongestion, and at the end the Finalize rates. A Leave replay
// that drifts even one ulp from the factors the joins applied fails here.
// Internal test: it reads the unexported ledger.
func TestOnlineLeaveFingerprint(t *testing.T) {
	for _, tc := range []struct {
		name      string
		arbitrary bool
		want      uint64
	}{
		{"ip", false, 0xabc3d31a6ab97fb3},
		{"arbitrary", true, 0xeb2ea7704e399a3c},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := onlineLeaveFingerprint(t, tc.arbitrary); got != tc.want {
				t.Fatalf("ledger/congestion/rate fingerprint %#016x, want %#016x", got, tc.want)
			}
		})
	}
}

func onlineLeaveFingerprint(t *testing.T, arbitrary bool) uint64 {
	t.Helper()
	r := rng.New(57)
	net, err := topology.Waxman(topology.DefaultWaxman(30), r)
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph
	perm := r.Perm(30)
	memberSets := [][]graph.NodeID{
		perm[0:4], perm[4:7], perm[7:10], perm[10:15], perm[15:18],
		perm[18:22], perm[22:25], perm[25:28], perm[2:6],
	}
	o, err := NewOnline(g, 20)
	if err != nil {
		t.Fatal(err)
	}

	h := fnv.New64a()
	word := func(v float64) {
		var b [8]byte
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	var left []bool
	state := func() {
		for _, v := range o.d.Values() {
			word(v)
		}
		word(o.MaxCongestion())
		for idx := 0; idx < o.NumSessions(); idx++ {
			if !left[idx] {
				word(o.SessionMaxCongestion(idx))
			}
		}
	}
	join := func(idx int) {
		s, err := overlay.NewSession(idx, memberSets[idx], float64(1+idx%3))
		if err != nil {
			t.Fatal(err)
		}
		var oracle overlay.TreeOracle
		if arbitrary {
			oracle, err = overlay.NewArbitraryOracle(g, s)
		} else {
			oracle, err = overlay.NewFixedOracle(g, routing.NewIPRoutes(g, s.Members), s)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := o.Join(oracle); err != nil {
			t.Fatal(err)
		}
		left = append(left, false)
		state()
	}
	leave := func(idx int) {
		if err := o.Leave(idx); err != nil {
			t.Fatal(err)
		}
		left[idx] = true
		state()
	}

	for idx := 0; idx < 5; idx++ {
		join(idx)
	}
	leave(2)
	leave(1)
	join(5)
	leave(4)
	join(6)
	join(7)
	leave(0)
	join(8)
	leave(6)

	sol, err := o.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.CheckFeasible(1e-9); err != nil {
		t.Fatal(err)
	}
	for i := range sol.Sessions {
		word(sol.SessionRate(i))
	}
	return h.Sum64()
}
