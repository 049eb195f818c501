package experiments

// The warm-churn tier drives the v2 Allocator surface (session handles +
// warm-start incremental re-solve) with an arrival/departure trace and a
// periodic Snapshot cadence: the steady-state question is how many fresh
// ε-feasible fair allocations per second the allocator sustains while the
// population churns underneath it. The cold baseline answers the same
// question with warm-start disabled (every refresh is a full re-solve), so
// the pair of rows is the tentpole speedup measurement.
//
// The same replay optionally interleaves a seeded link flap trace through
// the public Fault surface, raw or filtered through the route-flap Damper,
// whose suppression bounds the fault-driven cold re-solve work under
// oscillation.

import (
	"fmt"
	"math"
	"time"

	"overcast"
	"overcast/internal/churn"
	"overcast/internal/core"
	"overcast/internal/graph"
	"overcast/internal/rng"
	"overcast/internal/topology"
	"overcast/internal/underlay"
)

// ChurnTrace is the uniform arrival/departure trace a churn replay drives
// (churn.Config's fields) over a Waxman network of Nodes nodes. Zero fields
// take normalize's defaults.
type ChurnTrace churn.Config

func (c *ChurnTrace) normalize() error {
	if c.Nodes < 8 {
		return fmt.Errorf("experiments: churn replay needs >=8 nodes, got %d", c.Nodes)
	}
	// Defaults model the steady-state regime warm-start targets: a sizable
	// long-lived population (mean concurrency ≈ ArrivalRate·MeanLifetime ≈
	// 24) with one or two churn events between consecutive snapshots, so a
	// refresh repairs a small demand share instead of re-solving for everyone.
	if c.ArrivalRate <= 0 {
		c.ArrivalRate = 2
	}
	if c.MeanLifetime <= 0 {
		c.MeanLifetime = 12
	}
	if c.Horizon <= 0 {
		c.Horizon = 25
	}
	if c.SizeMin < 2 {
		c.SizeMin = 3
	}
	if c.SizeMax < c.SizeMin {
		c.SizeMax = c.SizeMin + 3
	}
	if c.Demand <= 0 {
		c.Demand = 1
	}
	return nil
}

// generate builds the replay's network (Waxman on seed) and trace (seed+1).
func (c ChurnTrace) generate(seed uint64) (*overcast.Network, *churn.Workload, error) {
	net, err := overcast.WaxmanNetwork(c.Nodes, 0, seed)
	if err != nil {
		return nil, nil, err
	}
	trace, err := churn.Generate(churn.Config(c), rng.New(seed+1))
	if err != nil {
		return nil, nil, err
	}
	return net, trace, nil
}

// WarmChurnConfig describes one warm-start churn replay, optionally under a
// link flap trace.
type WarmChurnConfig struct {
	ChurnTrace
	Mu        float64 // online step size (default 30)
	Epsilon   float64 // FPTAS error for the fair allocation (default 0.1)
	Arbitrary bool    // arbitrary dynamic routing instead of fixed IP
	// SolverOptions forward to the allocator (Workers 0 = GOMAXPROCS);
	// outputs are independent of both knobs.
	core.SolverOptions
	// SnapshotEvery refreshes the fair allocation every N trace events
	// (default 1: one snapshot per event) — the consumer polling cadence.
	SnapshotEvery int
	// ColdBaseline disables warm-start (every refresh re-solves from
	// scratch); the warm row's speedup is measured against this.
	ColdBaseline bool
	// FaultEdges > 0 interleaves a link flap trace on the first FaultEdges
	// edge ids (clamped to the edge count); 0 replays churn alone.
	// FailRate/MeanRepair are the per-link Poisson fail intensity and
	// exponential mean downtime (defaults 0.8 and 0.5 — an aggressively
	// flapping regime).
	FaultEdges int
	FailRate   float64
	MeanRepair float64
	// Damped filters the flap trace through the route-flap Damper before it
	// reaches the allocator: suppressed recoveries are held, bounding the
	// fault-driven cold re-solve work under oscillation. Damping overrides
	// the damper constants (zero fields take the BGP-style defaults).
	Damped  bool
	Damping underlay.DamperConfig
}

func (c *WarmChurnConfig) normalize() error {
	if err := c.ChurnTrace.normalize(); err != nil {
		return err
	}
	if c.Mu <= 0 {
		c.Mu = 30
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.1
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 1
	}
	if c.FailRate <= 0 {
		c.FailRate = 0.8
	}
	if c.MeanRepair <= 0 {
		c.MeanRepair = 0.5
	}
	return nil
}

// WarmChurnReport summarizes one replay.
type WarmChurnReport struct {
	Config          WarmChurnConfig
	Sessions        int // sessions in the trace
	PeakConcurrency int
	// Snapshots counts the ε-feasible fair allocations produced during the
	// replay; AllocationsPerSec is the steady-state rate they were sustained
	// at (Snapshots / ReplayTime).
	Snapshots         int
	AllocationsPerSec float64
	// WarmRefreshes / ColdSolves split the snapshots' refreshes by path;
	// RepairPhases counts warm session-phases and MSTOps the spanning-tree
	// computations across the whole replay (joins included).
	WarmRefreshes, ColdSolves int
	RepairPhases, MSTOps      int
	FinalActive               int
	// TraceFaults is the flap trace's length; AppliedFaults the events that
	// reached the allocator after damping (equal when undamped);
	// UnderlayEvents the capacity-changing subset the allocator recorded.
	// Each effective event latches the next refresh cold, so damping fewer
	// events means fewer cold solves. All zero without a flap trace.
	TraceFaults, AppliedFaults, UnderlayEvents int
	// Suppressed / Released / HeldAtEnd are the damper's counters (zero when
	// undamped).
	Suppressed, Released, HeldAtEnd int
	// Throughput and MinRate describe the last snapshot's allocation (zero
	// when no session survives to the horizon); Throughputs records every
	// snapshot's overall throughput in event order, so two replays of the
	// same trace can be compared snapshot-by-snapshot.
	Throughput  float64
	MinRate     float64
	Throughputs []float64
	ReplayTime  time.Duration
}

// String renders the report for cmd/experiments output.
func (r WarmChurnReport) String() string {
	mode := "warm"
	if r.Config.ColdBaseline {
		mode = "cold"
	}
	s := fmt.Sprintf("%-5s n=%-6d sessions=%-5d peak=%-4d snaps=%-5d warm=%-5d cold=%-5d repair=%-6d mstops=%-6d thpt=%-12.2f minrate=%-10.4f alloc/s=%-10.1f replay=%v",
		mode, r.Config.Nodes, r.Sessions, r.PeakConcurrency, r.Snapshots,
		r.WarmRefreshes, r.ColdSolves, r.RepairPhases, r.MSTOps,
		r.Throughput, r.MinRate, r.AllocationsPerSec,
		r.ReplayTime.Round(time.Millisecond))
	if r.Config.FaultEdges > 0 {
		s += fmt.Sprintf(" damped=%-5v faults=%-4d applied=%-4d events=%-4d suppressed=%-4d held=%d",
			r.Config.Damped, r.TraceFaults, r.AppliedFaults, r.UnderlayEvents, r.Suppressed, r.HeldAtEnd)
	}
	return s
}

// WarmChurnRun generates a deterministic churn trace and replays it through
// the v2 Allocator: every arrival is admitted online (and caught up to the
// anchored fair share at the next refresh), every departure rolled back
// exactly, and every SnapshotEvery trace events a fresh ε-feasible fair
// allocation is produced — incrementally warm-started unless
// cfg.ColdBaseline forces the cold path. With cfg.FaultEdges > 0 a link flap
// trace over the same horizon goes through Allocator.Fault (damped when
// cfg.Damped), each fault delivered before the churn event it precedes;
// every effective fault forces the next refresh cold.
func WarmChurnRun(seed uint64, cfg WarmChurnConfig) (*WarmChurnReport, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	net, trace, err := cfg.generate(seed)
	if err != nil {
		return nil, err
	}
	routing := overcast.RoutingIP
	if cfg.Arbitrary {
		routing = overcast.RoutingArbitrary
	}
	opts := overcast.AllocatorOptions{
		Mu: cfg.Mu, Epsilon: cfg.Epsilon, Routing: routing,
		Workers: cfg.Workers, Plane: cfg.Plane,
	}
	if cfg.ColdBaseline {
		opts.RepairPhaseBudget = -1
	}
	alloc, err := overcast.NewAllocator(net, opts)
	if err != nil {
		return nil, err
	}
	defer alloc.Close()

	rep := &WarmChurnReport{
		Config:   cfg,
		Sessions: len(trace.Sessions), PeakConcurrency: trace.PeakConcurrency(),
	}
	flaps, err := newFlapReplay(seed, &cfg, alloc)
	if err != nil {
		return nil, err
	}
	rep.TraceFaults = len(flaps.events)
	start := time.Now()
	ids := make(map[int]overcast.SessionID, len(trace.Sessions))
	var last *overcast.Allocation
	snapshot := func() error {
		var err error
		if last, err = alloc.Snapshot(); err != nil {
			return err
		}
		rep.Snapshots++
		rep.Throughputs = append(rep.Throughputs, last.OverallThroughput())
		return nil
	}
	for ei, ev := range trace.Events {
		if err := flaps.until(ev.Time); err != nil {
			return nil, err
		}
		spec := trace.Sessions[ev.Session]
		switch ev.Kind {
		case churn.Join:
			p, err := alloc.Join(overcast.Session{Members: spec.Members, Demand: spec.Demand})
			if err != nil {
				return nil, fmt.Errorf("experiments: warm churn join %d: %w", ev.Session, err)
			}
			ids[ev.Session] = p.Session
		case churn.Leave:
			// Departures clipped to the horizon are sessions still alive at
			// trace end; keep them admitted so the final allocation describes
			// the surviving population (mirrors ChurnRun).
			if spec.Depart >= cfg.Horizon {
				continue
			}
			if err := alloc.Leave(ids[ev.Session]); err != nil {
				return nil, fmt.Errorf("experiments: warm churn leave %d: %w", ev.Session, err)
			}
		}
		if (ei+1)%cfg.SnapshotEvery == 0 && alloc.Active() > 0 {
			if err := snapshot(); err != nil {
				return nil, fmt.Errorf("experiments: warm churn snapshot at event %d: %w", ei, err)
			}
		}
	}
	if err := flaps.finish(cfg.Horizon); err != nil {
		return nil, err
	}
	if alloc.Active() > 0 {
		if err := snapshot(); err != nil {
			return nil, err
		}
	}
	rep.ReplayTime = time.Since(start)
	if s := rep.ReplayTime.Seconds(); s > 0 {
		rep.AllocationsPerSec = float64(rep.Snapshots) / s
	}
	st := alloc.Stats()
	rep.WarmRefreshes, rep.ColdSolves = st.WarmRefreshes, st.ColdSolves
	rep.RepairPhases, rep.MSTOps = st.RepairPhases, st.MSTOps
	rep.UnderlayEvents, rep.AppliedFaults = st.UnderlayEvents, flaps.applied
	if d := flaps.damper; d != nil {
		rep.Suppressed, rep.Released, rep.HeldAtEnd = d.Suppressed, d.Released, d.Held()
	}
	rep.FinalActive = alloc.Active()
	if last != nil {
		if err := last.Verify(); err != nil {
			return nil, fmt.Errorf("experiments: warm churn final allocation: %w", err)
		}
		rep.Throughput = last.OverallThroughput()
		rep.MinRate = last.MinSessionRate()
	}
	return rep, nil
}

// flapReplay delivers a seeded link flap trace to an allocator in time
// order, through the route-flap damper when one is set. Without a flap
// trace it holds no events and delivers nothing.
type flapReplay struct {
	alloc   *overcast.Allocator
	edges   []graph.Edge // edge id -> the endpoints the Fault API speaks
	events  []underlay.Event
	next    int
	damper  *underlay.Damper
	applied int // events delivered to the allocator
}

// newFlapReplay generates cfg's flap trace (seed+2) on a shadow topology
// bit-identical to overcast.WaxmanNetwork(cfg.Nodes, 0, seed), which gives
// the generator edge ids and the replay their endpoints.
func newFlapReplay(seed uint64, cfg *WarmChurnConfig, alloc *overcast.Allocator) (*flapReplay, error) {
	f := &flapReplay{alloc: alloc}
	if cfg.FaultEdges <= 0 {
		return f, nil
	}
	shadow, err := topology.Waxman(topology.DefaultWaxman(cfg.Nodes), rng.New(seed))
	if err != nil {
		return nil, err
	}
	g := shadow.Graph
	flapEdges := make([]graph.EdgeID, min(cfg.FaultEdges, g.NumEdges()))
	for e := range flapEdges {
		flapEdges[e] = e
	}
	tr, err := underlay.GenerateFailures(g, underlay.FailureConfig{
		Edges: flapEdges, FailRate: cfg.FailRate, MeanRepair: cfg.MeanRepair, Horizon: cfg.Horizon,
	}, rng.New(seed+2))
	if err != nil {
		return nil, err
	}
	f.edges, f.events = g.Edges, tr.Events
	if cfg.Damped {
		f.damper = underlay.NewDamper(g, cfg.Damping)
	}
	return f, nil
}

// apply sends one link-down or link-up event to the allocator.
func (f *flapReplay) apply(ev underlay.Event) error {
	edge := f.edges[ev.Edge]
	lf := overcast.LinkFault{From: edge.U, To: edge.V, Kind: overcast.FaultLinkDown}
	if ev.Kind == underlay.LinkUp {
		lf.Kind = overcast.FaultLinkUp
	}
	f.applied++
	if _, err := f.alloc.Fault(lf); err != nil {
		return fmt.Errorf("experiments: flap %s edge %d: %w", ev.Kind, ev.Edge, err)
	}
	return nil
}

// until delivers every trace event due at or before t.
func (f *flapReplay) until(t float64) error {
	for ; f.next < len(f.events) && f.events[f.next].Time <= t; f.next++ {
		out := f.events[f.next : f.next+1]
		if f.damper != nil {
			out = f.damper.Process(out[0])
		}
		for _, ev := range out {
			if err := f.apply(ev); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish delivers the rest of the trace, then flushes the damper at the
// horizon: recoveries whose penalty has decayed are released, links still
// above the reuse threshold stay administratively down.
func (f *flapReplay) finish(horizon float64) error {
	if err := f.until(math.Inf(1)); err != nil {
		return err
	}
	if f.damper == nil {
		return nil
	}
	for _, ev := range f.damper.Flush(horizon) {
		if err := f.apply(ev); err != nil {
			return err
		}
	}
	return nil
}

// WarmQuality compares two replays of the same trace snapshot-by-snapshot
// and returns the mean warm/cold overall-throughput ratio (1.0 = warm-start
// matches the cold baseline exactly; the FPTAS target band is ≥ 1/(1+ε)).
// Averaging over every snapshot, rather than inspecting only the final one,
// removes the noise from where the last re-anchor happened to fall.
func WarmQuality(warm, cold *WarmChurnReport) float64 {
	n := len(warm.Throughputs)
	if len(cold.Throughputs) < n {
		n = len(cold.Throughputs)
	}
	if n == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		if cold.Throughputs[i] > 0 {
			sum += warm.Throughputs[i] / cold.Throughputs[i]
		}
	}
	return sum / float64(n)
}

// WarmChurnPair replays the same trace twice — warm-start on, then the cold
// baseline — and returns both reports. The warm row's AllocationsPerSec over
// the cold row's is the steady-state speedup the incremental re-solve buys.
func WarmChurnPair(seed uint64, cfg WarmChurnConfig) (warm, cold *WarmChurnReport, err error) {
	cfg.ColdBaseline = false
	if warm, err = WarmChurnRun(seed, cfg); err != nil {
		return nil, nil, err
	}
	cfg.ColdBaseline = true
	if cold, err = WarmChurnRun(seed, cfg); err != nil {
		return nil, nil, err
	}
	return warm, cold, nil
}
