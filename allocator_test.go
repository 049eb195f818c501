package overcast_test

// Tests for the Allocator surface: session-handle contracts, the
// SessionRate error contract, OverlayTree immutability, the online
// allocation view, and the warm-start churn replay
// (quality vs the cold baseline and determinism across worker counts).
// The engine-level warm-start properties — catch-up/re-grow quality
// cross-checked against the internal/exact LP, budget fallback, and the
// fault-before-leave fallback ordering — are pinned by the internal/core
// warm tests; these stay at the public-surface level.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"overcast"
	"overcast/internal/experiments"
)

func testAllocNet(t *testing.T, seed uint64) *overcast.Network {
	t.Helper()
	net, err := overcast.WaxmanNetwork(60, 100, seed)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

var allocTestSessions = []overcast.Session{
	{Members: []int{0, 11, 23, 37}, Demand: 100},
	{Members: []int{4, 18, 42}, Demand: 100},
	{Members: []int{7, 29, 51, 58}, Demand: 100},
}

func TestAllocatorHandleContract(t *testing.T) {
	if _, err := overcast.NewAllocator(nil, overcast.AllocatorOptions{}); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := overcast.NewAllocator(testAllocNet(t, 3), overcast.AllocatorOptions{Mu: -1}); err == nil {
		t.Fatal("negative mu accepted")
	}
	a, err := overcast.NewAllocator(testAllocNet(t, 3), overcast.AllocatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	var zero overcast.SessionID
	if zero.Valid() {
		t.Fatal("zero SessionID must be invalid")
	}
	if err := a.Leave(zero); err == nil {
		t.Fatal("Leave(zero handle) must fail")
	}
	if _, err := a.SessionRate(zero); err == nil {
		t.Fatal("SessionRate(zero handle) must fail")
	}

	var ids []overcast.SessionID
	epochs := []uint64{a.Epoch()}
	for _, s := range allocTestSessions {
		p, err := a.Join(s)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Session.Valid() {
			t.Fatalf("Join returned invalid handle %v", p.Session)
		}
		if p.Epoch <= epochs[len(epochs)-1] {
			t.Fatalf("Join epoch %d did not advance past %d", p.Epoch, epochs[len(epochs)-1])
		}
		if p.Rate <= 0 || len(p.Tree.Pairs()) != len(s.Members)-1 || len(p.Trees) != 1 {
			t.Fatalf("Join placement malformed: rate=%v pairs=%d trees=%d", p.Rate, len(p.Tree.Pairs()), len(p.Trees))
		}
		epochs = append(epochs, p.Epoch)
		ids = append(ids, p.Session)
	}
	if a.Admitted() != 3 || a.Active() != 3 {
		t.Fatalf("admitted=%d active=%d, want 3/3", a.Admitted(), a.Active())
	}

	// A handle from a different allocator with more arrivals must be
	// rejected, not silently resolved to some other session.
	b, err := overcast.NewAllocator(testAllocNet(t, 3), overcast.AllocatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Join(allocTestSessions[0]); err != nil {
		t.Fatal(err)
	}
	if err := b.Leave(ids[2]); err == nil {
		t.Fatal("Leave(foreign handle beyond arrivals) must fail")
	}

	if !a.IsActive(ids[1]) {
		t.Fatal("admitted session reported inactive")
	}
	if err := a.Leave(ids[1]); err != nil {
		t.Fatal(err)
	}
	if a.IsActive(ids[1]) {
		t.Fatal("departed session reported active")
	}
	if a.Active() != 2 || a.Admitted() != 3 {
		t.Fatalf("after leave: admitted=%d active=%d, want 3/2", a.Admitted(), a.Active())
	}
	// The online view covers exactly the active sessions, densely indexed,
	// and is feasible as-is.
	online, err := a.OnlineAllocation()
	if err != nil {
		t.Fatal(err)
	}
	if err := online.Verify(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Active(); i++ {
		if online.SessionRate(i) <= 0 {
			t.Fatalf("active session %d has online rate %v", i, online.SessionRate(i))
		}
	}
	// Handles are never reused: the departed handle keeps failing cleanly.
	if err := a.Leave(ids[1]); err == nil {
		t.Fatal("double Leave must fail")
	}
	p, err := a.Join(allocTestSessions[1])
	if err != nil {
		t.Fatal(err)
	}
	if p.Session == ids[1] {
		t.Fatal("handle was reused for a later arrival")
	}
	if err := a.Leave(ids[1]); err == nil {
		t.Fatal("departed handle must keep failing after a new arrival")
	}

	a.Close() // idempotent
	if _, err := a.Join(allocTestSessions[0]); err == nil {
		t.Fatal("Join after Close must fail")
	}
	if _, err := a.Snapshot(); err == nil {
		t.Fatal("Snapshot after Close must fail")
	}
}

// TestSessionRateErrorContract pins that departed handles are errors, not
// garbage, while surviving sessions keep a positive rate.
func TestSessionRateErrorContract(t *testing.T) {
	a, err := overcast.NewAllocator(testAllocNet(t, 5), overcast.AllocatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	p0, err := a.Join(allocTestSessions[0])
	if err != nil {
		t.Fatal(err)
	}
	p1, err := a.Join(allocTestSessions[1])
	if err != nil {
		t.Fatal(err)
	}
	if r, err := a.SessionRate(p0.Session); err != nil || r <= 0 {
		t.Fatalf("active SessionRate = %v, %v", r, err)
	}
	if err := a.Leave(p0.Session); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SessionRate(p0.Session); err == nil {
		t.Fatal("SessionRate on departed session must fail")
	}
	if r, err := a.SessionRate(p1.Session); err != nil || r <= 0 {
		t.Fatalf("surviving SessionRate = %v, %v", r, err)
	}
}

// TestJoinRejectsMemberOutsideGraph: a member outside [0, n) is an error
// under both routing modes, and nothing is admitted.
func TestJoinRejectsMemberOutsideGraph(t *testing.T) {
	net, err := overcast.WaxmanNetwork(16, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, routing := range []overcast.Routing{overcast.RoutingIP, overcast.RoutingArbitrary} {
		for _, member := range []int{-1, 16} {
			a, err := overcast.NewAllocator(net, overcast.AllocatorOptions{Routing: routing})
			if err != nil {
				t.Fatal(err)
			}
			_, err = a.Join(overcast.Session{Members: []int{2, member}, Demand: 1})
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("member %d outside graph", member)) {
				t.Errorf("routing %v, member %d: err %v, want member outside graph", routing, member, err)
			}
			if a.Active() != 0 {
				t.Errorf("routing %v, member %d: %d sessions admitted", routing, member, a.Active())
			}
			a.Close()
		}
	}
}

// TestOverlayTreeStaysIntact pins the OverlayTree aliasing contract's
// guarantee side: a placement's trees are private copies, so they stay
// bitwise intact through any amount of later allocator activity.
func TestOverlayTreeStaysIntact(t *testing.T) {
	a, err := overcast.NewAllocator(testAllocNet(t, 9), overcast.AllocatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	p, err := a.Join(allocTestSessions[0])
	if err != nil {
		t.Fatal(err)
	}
	pairs := append([][2]int(nil), p.Tree.Pairs()...)
	members := append([]int(nil), p.Tree.Members()...)
	rate, hops := p.Tree.Rate(), p.Tree.PhysicalHops()

	for _, s := range allocTestSessions[1:] {
		if _, err := a.Join(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Rebalance(); err != nil {
		t.Fatal(err)
	}

	if p.Tree.Rate() != rate || p.Tree.PhysicalHops() != hops {
		t.Fatal("OverlayTree scalars changed after later allocator activity")
	}
	got := p.Tree.Pairs()
	if len(got) != len(pairs) {
		t.Fatal("OverlayTree pairs changed length")
	}
	for i := range pairs {
		if got[i] != pairs[i] {
			t.Fatalf("OverlayTree pair %d changed: %v != %v", i, got[i], pairs[i])
		}
	}
	gotM := p.Tree.Members()
	for i := range members {
		if gotM[i] != members[i] {
			t.Fatalf("OverlayTree member %d changed", i)
		}
	}
}

// TestWarmChurnReplayQualityAndDeterminism replays a small churn trace
// through the v2 Allocator and pins the two tentpole properties at the
// public surface: every warm snapshot's throughput stays within the FPTAS
// band of the cold baseline's for the same trace position (mean ratio >=
// 1/(1+eps) with measurement slack), and the whole warm replay — every
// snapshot throughput and the warm/cold refresh split — is bit-identical
// across worker counts 1, 2, and 8.
func TestWarmChurnReplayQualityAndDeterminism(t *testing.T) {
	cfg := experiments.WarmChurnConfig{ChurnTrace: experiments.ChurnTrace{Nodes: 60, Horizon: 12}}
	warm, cold, err := experiments.WarmChurnPair(2004, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.WarmRefreshes == 0 {
		t.Fatal("warm replay never took the warm path")
	}
	if cold.WarmRefreshes != 0 {
		t.Fatal("cold baseline took the warm path")
	}
	if warm.Snapshots != cold.Snapshots {
		t.Fatalf("snapshot counts diverged: warm %d cold %d", warm.Snapshots, cold.Snapshots)
	}
	q := experiments.WarmQuality(warm, cold)
	eps := warm.Config.Epsilon
	if band := 1 / (1 + eps); q < band-0.02 {
		t.Fatalf("mean warm/cold snapshot quality %.4f below FPTAS band %.4f", q, band)
	}
	for i, wt := range warm.Throughputs {
		if math.IsNaN(wt) || wt <= 0 {
			t.Fatalf("warm snapshot %d throughput %v", i, wt)
		}
	}

	base := warm
	for _, workers := range []int{2, 8} {
		wcfg := cfg
		wcfg.Workers = workers
		rep, err := experiments.WarmChurnRun(2004, wcfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.WarmRefreshes != base.WarmRefreshes || rep.ColdSolves != base.ColdSolves ||
			rep.RepairPhases != base.RepairPhases || rep.MSTOps != base.MSTOps {
			t.Fatalf("workers=%d refresh split diverged: %+v vs %+v", workers, rep, base)
		}
		if len(rep.Throughputs) != len(base.Throughputs) {
			t.Fatalf("workers=%d snapshot count diverged", workers)
		}
		for i := range base.Throughputs {
			if rep.Throughputs[i] != base.Throughputs[i] {
				t.Fatalf("workers=%d snapshot %d: %.17g != %.17g",
					workers, i, rep.Throughputs[i], base.Throughputs[i])
			}
		}
	}
}

// TestPlaneModeValidation pins the plane-mode contract at the public surface:
// the zero value is PlaneSubtree, every declared mode round-trips through its
// flag spelling and is accepted by NewAllocator, and an unknown spelling or
// an out-of-range value is rejected with an error by PlaneMode.Set and
// NewAllocator respectively.
func TestPlaneModeValidation(t *testing.T) {
	var zero overcast.PlaneMode
	if zero != overcast.PlaneSubtree {
		t.Fatalf("zero PlaneMode is %v, want subtree", zero)
	}
	if (overcast.AllocatorOptions{}).Plane != overcast.PlaneSubtree {
		t.Fatal("zero AllocatorOptions does not default to PlaneSubtree")
	}
	net := testAllocNet(t, 3)
	for _, tc := range []struct {
		spelling string // "" = skip the Set half
		mode     overcast.PlaneMode
		ok       bool
	}{
		{"subtree", overcast.PlaneSubtree, true},
		{"full", 0, false}, // retired: the plane chooses repair or refill itself
		{"off", overcast.PlaneOff, true},
		{"repair", 0, false},
		{"Subtree", 0, false},
		{"", overcast.PlaneMode(-1), false},
		{"", overcast.PlaneOff + 1, false},
	} {
		if tc.spelling != "" {
			var m overcast.PlaneMode
			err := m.Set(tc.spelling)
			if (err == nil) != tc.ok {
				t.Fatalf("Set(%q) error = %v, want ok=%v", tc.spelling, err, tc.ok)
			}
			if !tc.ok {
				continue
			}
			if m != tc.mode || m.String() != tc.spelling {
				t.Fatalf("Set(%q) = %v (%d), want %d", tc.spelling, m, int(m), int(tc.mode))
			}
		}
		a, err := overcast.NewAllocator(net, overcast.AllocatorOptions{Plane: tc.mode})
		if (err == nil) != tc.ok {
			t.Fatalf("NewAllocator(Plane=%d) error = %v, want ok=%v", int(tc.mode), err, tc.ok)
		}
		if a != nil {
			a.Close()
		}
	}
}

// TestAllocatorFaultSurface covers the public underlay-fault entry point:
// fail → capacity collapse and cold re-solve, recover → exact restore, drift
// composition, no-op and error contracts, and the new stats counters.
func TestAllocatorFaultSurface(t *testing.T) {
	a, err := overcast.NewAllocator(testAllocNet(t, 3), overcast.AllocatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for _, s := range allocTestSessions {
		if _, err := a.Join(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.ColdSolves != 1 || st.UnderlayEvents != 0 {
		t.Fatalf("pre-fault stats: %+v", st)
	}

	// The incremental Waxman generator always connects node 1 to node 0, so
	// link (0,1) exists in every network.
	healthy, err := a.Fault(overcast.LinkFault{From: 0, To: 1, Kind: overcast.FaultLinkUp})
	if err != nil {
		t.Fatal(err)
	}
	if healthy <= 0 {
		t.Fatalf("healthy capacity %v", healthy)
	}
	// Recovering a healthy link is a no-op: no event counted, no epoch bump.
	if st := a.Stats(); st.UnderlayEvents != 0 {
		t.Fatalf("no-op recovery counted an underlay event: %+v", st)
	}

	epoch := a.Epoch()
	downCap, err := a.Fault(overcast.LinkFault{From: 0, To: 1, Kind: overcast.FaultLinkDown})
	if err != nil {
		t.Fatal(err)
	}
	if downCap >= healthy/1000 {
		t.Fatalf("failed link capacity %v did not collapse from %v", downCap, healthy)
	}
	if a.Epoch() != epoch+1 {
		t.Fatalf("fault must advance the allocator epoch: %d -> %d", epoch, a.Epoch())
	}
	if _, err := a.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.UnderlayEvents != 1 {
		t.Fatalf("UnderlayEvents = %d, want 1", st.UnderlayEvents)
	}
	if st.ColdSolves != 2 || st.WarmRefreshes != 0 {
		t.Fatalf("post-fault snapshot must re-solve cold: %+v", st)
	}

	// Drift composes with the failure, and recovery restores base*drift
	// exactly.
	if _, err := a.Fault(overcast.LinkFault{From: 0, To: 1, Kind: overcast.FaultDrift, Factor: 0.5}); err != nil {
		t.Fatal(err)
	}
	recovered, err := a.Fault(overcast.LinkFault{From: 0, To: 1, Kind: overcast.FaultLinkUp})
	if err != nil {
		t.Fatal(err)
	}
	if want := healthy * 0.5; math.Abs(recovered/want-1) > 1e-12 {
		t.Fatalf("recovered capacity %v, want %v (healthy %v x drift 0.5)", recovered, want, healthy)
	}
	if _, err := a.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.UnderlayEvents != 3 || st.ColdSolves != 3 {
		t.Fatalf("post-recovery stats: %+v", st)
	}

	// Error contracts: unknown link, bad drift factor, closed allocator.
	if _, err := a.Fault(overcast.LinkFault{From: 0, To: 0, Kind: overcast.FaultLinkDown}); err == nil {
		t.Fatal("fault on a nonexistent link must fail")
	}
	if _, err := a.Fault(overcast.LinkFault{From: 0, To: 1, Kind: overcast.FaultDrift, Factor: -1}); err == nil {
		t.Fatal("non-positive drift factor must fail")
	}
	if _, err := a.Fault(overcast.LinkFault{From: 0, To: 1, Kind: overcast.FaultKind(99)}); err == nil {
		t.Fatal("unknown fault kind must fail")
	}
	a.Close()
	if _, err := a.Fault(overcast.LinkFault{From: 0, To: 1, Kind: overcast.FaultLinkDown}); err == nil {
		t.Fatal("fault on a closed allocator must fail")
	}
}
