package experiments

// The fault tier is the robustness harness: it threads seeded underlay fault
// events (link failures, recoveries, capacity drift) through live solver
// state and checks that every ledger consumer degrades deterministically.
//
// FaultSolveRun drives the runner layer directly — a persistent
// overlay.BatchRunner over one long-lived LengthStore, with
// Garg–Könemann-style multiplicative length updates between rounds and fault
// events injected mid-stream. Its fingerprint covers solver *outputs* only
// (tree identities and lengths), never counters, so one scenario replayed
// across workers x plane modes must produce bit-identical fingerprints while
// the robustness counters (plane non-monotone refills) vary with the mode.
//
// FaultChurnRun replays session churn interleaved with a link flap trace
// through the public Allocator surface — optionally filtered through the
// route-flap Damper, whose suppression demonstrably bounds the fault-driven
// cold re-solve work under oscillation.

import (
	"fmt"
	"hash/fnv"
	"time"

	"overcast"
	"overcast/internal/churn"
	"overcast/internal/core"
	"overcast/internal/graph"
	"overcast/internal/overlay"
	"overcast/internal/rng"
	"overcast/internal/topology"
	"overcast/internal/underlay"
)

// FaultSolveConfig describes one runner-layer fault replay.
type FaultSolveConfig struct {
	Nodes       int // topology size (>= 8)
	Sessions    int // competing sessions (>= 1)
	SessionSize int // members per session (default 4)
	// TwoLevelASes switches to the paper's two-level AS/router topology; 0
	// keeps flat Waxman.
	TwoLevelASes int
	// SolverOptions are the wall-clock knobs under test: outputs must be
	// bit-identical for every worker count and plane mode.
	core.SolverOptions
	// Rounds is the number of oracle rounds (default 10). Between rounds
	// every returned tree's edges take a multiplicative length bump of
	// (1 + BumpEpsilon·n_e), the Garg–Könemann update shape.
	Rounds      int
	BumpEpsilon float64 // default 0.25
	// FailRound / RecoverRound inject a LinkDown / LinkUp on the fault link
	// after those rounds (defaults 2 and 5; -1 disables). The recovery is
	// the non-monotone shrink that must degrade plane rows to full refills.
	FailRound    int
	RecoverRound int
	// DriftRound applies a capacity drift by DriftFactor after that round
	// (defaults 7 and 1.9; DriftRound -1 disables). A factor > 1 is another
	// shrink source.
	DriftRound  int
	DriftFactor float64
	// FaultStorm floods the ledger with more than graph.JournalWindow
	// touches before the final round — the burst that outruns the plane's
	// journal walk and latches every row onto the conservative target-walk
	// classification.
	FaultStorm bool
}

func (c *FaultSolveConfig) normalize() error {
	if c.Nodes < 8 {
		return fmt.Errorf("experiments: fault solve run needs >=8 nodes, got %d", c.Nodes)
	}
	if c.Sessions < 1 {
		return fmt.Errorf("experiments: fault solve run needs >=1 session, got %d", c.Sessions)
	}
	if c.SessionSize < 2 {
		c.SessionSize = 4
	}
	if c.Rounds <= 0 {
		c.Rounds = 10
	}
	if c.BumpEpsilon <= 0 {
		c.BumpEpsilon = 0.25
	}
	if c.FailRound == 0 {
		c.FailRound = 2
	}
	if c.RecoverRound == 0 {
		c.RecoverRound = 5
	}
	if c.DriftRound == 0 {
		c.DriftRound = 7
	}
	if c.DriftFactor <= 0 {
		c.DriftFactor = 1.9
	}
	return nil
}

// FaultSolveReport summarizes one runner-layer fault replay.
type FaultSolveReport struct {
	Config FaultSolveConfig
	Edges  int
	Rounds int
	// UnderlayEvents counts the capacity-changing fault events applied.
	UnderlayEvents int
	// Fingerprint hashes the solver outputs: every round's tree identities
	// and lengths plus the final ledger, all at full float precision. It
	// must be identical across workers x plane modes.
	Fingerprint string
	// Plane carries the runner's metrics; NonMonotoneRefills counts rows the
	// recovery shrink degraded to full refills (mode-dependent, excluded
	// from the fingerprint).
	Plane     overlay.PlaneStats
	SolveTime time.Duration
}

// String renders the report for cmd/experiments output.
func (r FaultSolveReport) String() string {
	return fmt.Sprintf("n=%-6d |E|=%-6d rounds=%-3d events=%-3d nonmono=%-4d fp=%s solve=%v",
		r.Config.Nodes, r.Edges, r.Rounds, r.UnderlayEvents,
		r.Plane.NonMonotoneRefills, r.Fingerprint,
		r.SolveTime.Round(time.Millisecond))
}

// FaultSolveRun replays the configured fault scenario against a persistent
// runner: Rounds oracle rounds over one LengthStore, Garg–Könemann length
// bumps between rounds, and fault events (mirrored onto the ledger as
// explicit, possibly non-monotone Bump mutations) after their configured
// rounds. Deterministic for a given (seed, scenario); the fingerprint is
// independent of Workers and Plane.
func FaultSolveRun(seed uint64, cfg FaultSolveConfig) (*FaultSolveReport, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	si, err := NewScaleInstance(seed, ScaleConfig{
		Nodes: cfg.Nodes, Sessions: cfg.Sessions, SessionSize: cfg.SessionSize,
		Arbitrary: true, TwoLevelASes: cfg.TwoLevelASes,
	})
	if err != nil {
		return nil, err
	}
	g := si.Net.Graph
	if g.NumEdges() < 2 {
		return nil, fmt.Errorf("experiments: fault solve run needs >=2 edges")
	}

	runner := overlay.NewBatchRunnerOpts(g, si.Problem.Oracles, overlay.BatchOptions{
		Workers: cfg.Workers,
		Plane:   cfg.Plane,
	})
	defer runner.Close()

	// The fault state rewrites capacities on the shared instance graph;
	// restore them so cached instances and later runs see the base topology.
	st := underlay.NewState(g)
	defer st.Restore()
	fault := func(ls *graph.LengthStore, ev underlay.Event) {
		if factor, changed := st.Apply(ev); changed {
			ls.Bump(ev.Edge, factor)
		}
	}

	h := fnv.New64a()
	ls := graph.NewLengthStore(g, 1)
	start := time.Now()
	for round := 0; round < cfg.Rounds; round++ {
		res := runner.MinTreesLen(ls, nil)
		for i, r := range res {
			if r.Err != nil {
				return nil, fmt.Errorf("experiments: fault solve round %d session %d: %w", round, i, r.Err)
			}
			fmt.Fprintf(h, "r%d s%d %x %.17g\n", round, i, r.Tree.KeyHash(), r.Len)
		}
		// Garg–Könemann-shaped price update: every edge a returned tree uses
		// grows by its multiplicity. Result order is batch-slot order and
		// Use() is edge-sorted, so the update sequence is deterministic.
		for _, r := range res {
			for _, u := range r.Tree.Use() {
				ls.Bump(u.Edge, 1+cfg.BumpEpsilon*float64(u.Count))
			}
		}
		switch round {
		case cfg.FailRound:
			fault(ls, underlay.Event{Kind: underlay.LinkDown, Edge: 0})
		case cfg.RecoverRound:
			fault(ls, underlay.Event{Kind: underlay.LinkUp, Edge: 0})
		}
		if round == cfg.DriftRound {
			fault(ls, underlay.Event{Kind: underlay.Drift, Edge: 1, Factor: cfg.DriftFactor})
		}
		if cfg.FaultStorm && round == cfg.Rounds-2 {
			// Flood the journal past its window: alternating whole-sweep
			// bumps keep every length within a factor of 2 of where it was
			// while discarding the window's oldest half many times over.
			m := g.NumEdges()
			for i := 0; i < graph.JournalWindow+m; i++ {
				if (i / m % 2) == 0 {
					ls.Bump(i%m, 2)
				} else {
					ls.Bump(i%m, 0.5)
				}
			}
		}
	}
	for e := 0; e < ls.Len(); e++ {
		fmt.Fprintf(h, "d%d %.17g\n", e, ls.Values()[e])
	}

	return &FaultSolveReport{
		Config: cfg, Edges: g.NumEdges(), Rounds: cfg.Rounds,
		UnderlayEvents: st.Applied,
		Fingerprint:    fmt.Sprintf("%016x", h.Sum64()),
		Plane:          runner.Metrics(),
		SolveTime:      time.Since(start),
	}, nil
}

// FaultChurnConfig describes one allocator-level churn-under-faults replay.
type FaultChurnConfig struct {
	Nodes int // Waxman topology size
	// Arrival process and uniform session-size range, as in WarmChurnConfig.
	ArrivalRate      float64
	MeanLifetime     float64
	Horizon          float64
	SizeMin, SizeMax int
	Demand           float64
	Mu               float64 // online step size (default 30)
	Epsilon          float64 // FPTAS error (default 0.1)
	core.SolverOptions
	// SnapshotEvery refreshes the fair allocation every N churn events
	// (default 4).
	SnapshotEvery int
	// FaultEdges is how many links the flap process covers (the first N edge
	// ids; default 8, clamped to the edge count). FailRate/MeanRepair are
	// the per-link Poisson fail intensity and exponential mean downtime
	// (defaults 0.8 and 0.5 — an aggressively flapping regime).
	FaultEdges int
	FailRate   float64
	MeanRepair float64
	// Damped filters the fault trace through the route-flap Damper before it
	// reaches the allocator: suppressed recoveries are held, bounding the
	// fault-driven cold re-solve work under oscillation.
	Damped bool
	// Damping overrides the damper constants (zero fields take the BGP-style
	// defaults).
	Damping underlay.DamperConfig
}

func (c *FaultChurnConfig) normalize() error {
	if c.Nodes < 8 {
		return fmt.Errorf("experiments: fault churn run needs >=8 nodes, got %d", c.Nodes)
	}
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
	if c.Mu <= 0 {
		c.Mu = 30
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.1
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 4
	}
	if c.FaultEdges <= 0 {
		c.FaultEdges = 8
	}
	if c.FailRate <= 0 {
		c.FailRate = 0.8
	}
	if c.MeanRepair <= 0 {
		c.MeanRepair = 0.5
	}
	return nil
}

// FaultChurnReport summarizes one churn-under-faults replay.
type FaultChurnReport struct {
	Config          FaultChurnConfig
	Sessions        int
	PeakConcurrency int
	// TraceFaults is the raw fault-trace length; AppliedFaults the events
	// that reached the allocator after damping (equal when undamped);
	// UnderlayEvents the capacity-changing subset the allocator recorded.
	TraceFaults    int
	AppliedFaults  int
	UnderlayEvents int
	// Suppressed / Released / HeldAtEnd are the damper's counters (zero when
	// undamped).
	Suppressed, Released, HeldAtEnd int
	// ColdSolves counts full re-solves; under faults each effective event
	// latches the warm engine's cold fallback, so damping fewer events means
	// fewer cold solves — the bound BenchmarkFaultChurn records.
	ColdSolves         int
	WarmRefreshes      int
	NonMonotoneRefills int
	Snapshots          int
	FinalActive        int
	Throughput         float64
	ReplayTime         time.Duration
}

// String renders the report for cmd/experiments output.
func (r FaultChurnReport) String() string {
	mode := "undamped"
	if r.Config.Damped {
		mode = "damped"
	}
	return fmt.Sprintf("%-8s n=%-6d sessions=%-5d peak=%-4d faults=%-4d applied=%-4d events=%-4d suppressed=%-4d cold=%-4d warm=%-4d snaps=%-4d thpt=%-12.2f replay=%v",
		mode, r.Config.Nodes, r.Sessions, r.PeakConcurrency,
		r.TraceFaults, r.AppliedFaults, r.UnderlayEvents, r.Suppressed,
		r.ColdSolves, r.WarmRefreshes, r.Snapshots, r.Throughput,
		r.ReplayTime.Round(time.Millisecond))
}

// FaultChurnRun generates a deterministic churn trace and a link flap trace
// over the same horizon, merges them by time, and replays the merged stream
// through the public Allocator: churn events join/leave sessions, fault
// events go through Allocator.Fault (optionally damped). Every SnapshotEvery
// churn events a fresh fair allocation is produced; faults in between force
// the next refresh down the cold path.
func FaultChurnRun(seed uint64, cfg FaultChurnConfig) (*FaultChurnReport, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	// Shadow topology: bit-identical to overcast.WaxmanNetwork(nodes, 0,
	// seed), giving the fault generator edge ids and the replay the edge
	// endpoints the public Fault API speaks.
	shadow, err := topology.Waxman(topology.DefaultWaxman(cfg.Nodes), rng.New(seed))
	if err != nil {
		return nil, err
	}
	net, err := overcast.WaxmanNetwork(cfg.Nodes, 0, seed)
	if err != nil {
		return nil, err
	}
	trace, err := churn.Generate(churn.Config{
		Nodes:        cfg.Nodes,
		ArrivalRate:  cfg.ArrivalRate,
		MeanLifetime: cfg.MeanLifetime,
		Horizon:      cfg.Horizon,
		SizeMin:      cfg.SizeMin,
		SizeMax:      cfg.SizeMax,
		Demand:       cfg.Demand,
	}, rng.New(seed+1))
	if err != nil {
		return nil, err
	}
	nf := cfg.FaultEdges
	if m := shadow.Graph.NumEdges(); nf > m {
		nf = m
	}
	flapEdges := make([]graph.EdgeID, nf)
	for e := range flapEdges {
		flapEdges[e] = e
	}
	faults, err := underlay.GenerateFailures(shadow.Graph, underlay.FailureConfig{
		Edges: flapEdges, FailRate: cfg.FailRate, MeanRepair: cfg.MeanRepair, Horizon: cfg.Horizon,
	}, rng.New(seed+2))
	if err != nil {
		return nil, err
	}

	alloc, err := overcast.NewAllocator(net, overcast.AllocatorOptions{
		Mu: cfg.Mu, Epsilon: cfg.Epsilon, Routing: overcast.RoutingArbitrary,
		Workers: cfg.Workers, Plane: cfg.Plane,
	})
	if err != nil {
		return nil, err
	}
	defer alloc.Close()

	var damper *underlay.Damper
	if cfg.Damped {
		damper = underlay.NewDamper(shadow.Graph, cfg.Damping)
	}
	rep := &FaultChurnReport{
		Config:   cfg,
		Sessions: len(trace.Sessions), PeakConcurrency: trace.PeakConcurrency(),
		TraceFaults: len(faults.Events),
	}
	apply := func(ev underlay.Event) error {
		edge := shadow.Graph.Edges[ev.Edge]
		lf := overcast.LinkFault{From: edge.U, To: edge.V}
		switch ev.Kind {
		case underlay.LinkDown:
			lf.Kind = overcast.FaultLinkDown
		case underlay.LinkUp:
			lf.Kind = overcast.FaultLinkUp
		case underlay.Drift:
			lf.Kind, lf.Factor = overcast.FaultDrift, ev.Factor
		}
		rep.AppliedFaults++
		if _, err := alloc.Fault(lf); err != nil {
			return fmt.Errorf("experiments: fault churn %s edge %d: %w", ev.Kind, ev.Edge, err)
		}
		return nil
	}
	inject := func(ev underlay.Event) error {
		if damper == nil {
			return apply(ev)
		}
		for _, out := range damper.Process(ev) {
			if err := apply(out); err != nil {
				return err
			}
		}
		return nil
	}

	start := time.Now()
	ids := make(map[int]overcast.SessionID, len(trace.Sessions))
	var last *overcast.Allocation
	fi := 0
	churnSeen := 0
	for _, ev := range trace.Events {
		// Deliver every fault due before this churn event first.
		for fi < len(faults.Events) && faults.Events[fi].Time <= ev.Time {
			if err := inject(faults.Events[fi]); err != nil {
				return nil, err
			}
			fi++
		}
		spec := trace.Sessions[ev.Session]
		switch ev.Kind {
		case churn.Join:
			p, err := alloc.Join(overcast.Session{Members: spec.Members, Demand: spec.Demand})
			if err != nil {
				return nil, fmt.Errorf("experiments: fault churn join %d: %w", ev.Session, err)
			}
			ids[ev.Session] = p.Session
		case churn.Leave:
			if spec.Depart >= cfg.Horizon {
				continue
			}
			if err := alloc.Leave(ids[ev.Session]); err != nil {
				return nil, fmt.Errorf("experiments: fault churn leave %d: %w", ev.Session, err)
			}
		}
		if churnSeen++; churnSeen%cfg.SnapshotEvery == 0 && alloc.Active() > 0 {
			if last, err = alloc.Snapshot(); err != nil {
				return nil, fmt.Errorf("experiments: fault churn snapshot: %w", err)
			}
			rep.Snapshots++
		}
	}
	for ; fi < len(faults.Events); fi++ {
		if err := inject(faults.Events[fi]); err != nil {
			return nil, err
		}
	}
	if damper != nil {
		// Horizon flush: recoveries whose penalty has decayed are released;
		// links still above the reuse threshold stay administratively down.
		for _, out := range damper.Flush(cfg.Horizon) {
			if err := apply(out); err != nil {
				return nil, err
			}
		}
		rep.Suppressed, rep.Released = damper.Suppressed, damper.Released
		rep.HeldAtEnd = damper.Held()
	}
	if alloc.Active() > 0 {
		if last, err = alloc.Snapshot(); err != nil {
			return nil, err
		}
		rep.Snapshots++
	}
	rep.ReplayTime = time.Since(start)
	st := alloc.Stats()
	rep.UnderlayEvents = st.UnderlayEvents
	rep.ColdSolves, rep.WarmRefreshes = st.ColdSolves, st.WarmRefreshes
	rep.NonMonotoneRefills = st.Plane.NonMonotoneRefills
	rep.FinalActive = alloc.Active()
	if last != nil {
		rep.Throughput = last.OverallThroughput()
	}
	return rep, nil
}

// FaultChurnPair replays the same churn + fault traces twice — undamped, then
// through the flap damper — and returns both reports. The damped row applying
// fewer fault events (and paying fewer fault-forced cold solves) than the
// undamped row is the damping satellite's headline bound.
func FaultChurnPair(seed uint64, cfg FaultChurnConfig) (undamped, damped *FaultChurnReport, err error) {
	cfg.Damped = false
	if undamped, err = FaultChurnRun(seed, cfg); err != nil {
		return nil, nil, err
	}
	cfg.Damped = true
	if damped, err = FaultChurnRun(seed, cfg); err != nil {
		return nil, nil, err
	}
	return undamped, damped, nil
}
