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
// Session churn under link flaps goes through the public Allocator surface
// in the warm-churn replay (WarmChurnConfig.FaultEdges).

import (
	"fmt"
	"hash/fnv"
	"time"

	"overcast/internal/core"
	"overcast/internal/graph"
	"overcast/internal/overlay"
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
	// touches before the final round — the burst that overruns the journal
	// window, so every plane row filled before it classifies by the
	// conservative read-path walk and refills when dirty.
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
