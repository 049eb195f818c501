package experiments

// The scale tier measures the regime the ROADMAP north-star cares about:
// Waxman/BRITE-style topologies in the 1,000-10,000 node range with dozens to
// hundreds of competing sessions, far beyond the paper's 100-node Table/Figure
// instances. It is consumed by the BenchmarkScale* benchmarks in bench_test.go
// and by `cmd/experiments -scale large`.

import (
	"fmt"
	"time"

	"overcast/internal/core"
	"overcast/internal/overlay"
	"overcast/internal/rng"
	"overcast/internal/topology"
	"overcast/internal/workload"
)

// ScaleConfig describes one large-instance scenario.
type ScaleConfig struct {
	Nodes       int     // topology size (2,000-10,000 for the real tier)
	Sessions    int     // number of competing sessions (64-256)
	SessionSize int     // members per session (source + receivers)
	Degree      int     // Waxman edges per new node (default 2)
	Capacity    float64 // uniform link capacity (default 100)
	Demand      float64 // per-session demand (default 100)
	Arbitrary   bool    // arbitrary dynamic routing instead of fixed IP
	// Scenario selects a named workload scenario (see internal/workload).
	// Empty keeps the legacy uniform construction — naive Waxman topology,
	// uniform Capacity/Demand, fixed SessionSize — bit-identical to earlier
	// releases for a given seed. Non-empty switches to the grid-accelerated
	// Waxman generator and the scenario's capacity/demand/size/popularity
	// distributions; SessionSize and Demand are then owned by the scenario.
	Scenario string
	// SolverOptions sets the solvers' oracle worker-pool size (0 =
	// GOMAXPROCS) and plane mode.
	// They affect wall-clock only: solver outputs are bit-identical for
	// every value, and the instance itself (topology, sessions) never
	// depends on them.
	core.SolverOptions
	// TwoLevelASes switches the topology to the paper's two-level AS/router
	// construction with this many ASes (Nodes/TwoLevelASes routers each). 0
	// keeps the flat Waxman topology.
	// Incompatible with Scenario (the workload distributions are calibrated
	// for the flat generator).
	TwoLevelASes int
}

func (c *ScaleConfig) normalize() error {
	if c.Nodes < 8 {
		return fmt.Errorf("experiments: scale instance needs >=8 nodes, got %d", c.Nodes)
	}
	if c.Sessions < 1 {
		return fmt.Errorf("experiments: scale instance needs >=1 session, got %d", c.Sessions)
	}
	if c.SessionSize < 2 {
		c.SessionSize = 4
	}
	if c.SessionSize > c.Nodes {
		return fmt.Errorf("experiments: session size %d exceeds %d nodes", c.SessionSize, c.Nodes)
	}
	if c.Degree < 1 {
		c.Degree = 2
	}
	if c.Capacity <= 0 {
		c.Capacity = 100
	}
	if c.Demand <= 0 {
		c.Demand = 100
	}
	if c.TwoLevelASes > 0 {
		if c.Scenario != "" {
			return fmt.Errorf("experiments: TwoLevelASes is incompatible with scenario %q", c.Scenario)
		}
		if c.Nodes%c.TwoLevelASes != 0 || c.Nodes/c.TwoLevelASes < 2 {
			return fmt.Errorf("experiments: %d nodes do not divide into %d ASes of >=2 routers", c.Nodes, c.TwoLevelASes)
		}
	}
	return nil
}

// Name returns a compact scenario label for benchmark and report output. A
// non-default Degree is part of the identity (it changes the topology), so
// instance caches keyed on the name cannot conflate densities.
func (c ScaleConfig) Name() string {
	mode := "ip"
	if c.Arbitrary {
		mode = "arb"
	}
	deg := ""
	if c.Degree >= 1 && c.Degree != 2 {
		deg = fmt.Sprintf("_d%d", c.Degree)
	}
	if c.Scenario != "" {
		return fmt.Sprintf("%s_n%d_k%d%s_%s", c.Scenario, c.Nodes, c.Sessions, deg, mode)
	}
	tl := ""
	if c.TwoLevelASes > 0 {
		tl = fmt.Sprintf("_tl%d", c.TwoLevelASes)
	}
	return fmt.Sprintf("n%d_k%d_s%d%s%s_%s", c.Nodes, c.Sessions, c.SessionSize, deg, tl, mode)
}

// ScaleInstance is a constructed large scenario ready to solve.
type ScaleInstance struct {
	Seed     uint64
	Config   ScaleConfig
	Net      *topology.Network
	Sessions []*overlay.Session
	Problem  *core.Problem
}

// NewScaleInstance builds a deterministic large instance. With no Scenario,
// it is the legacy construction — a naive incremental Waxman topology and
// Sessions member sets sampled uniformly (sessions may share nodes, members
// within a session are distinct) — kept bit-identical for a given seed.
// With a Scenario, the topology comes from the grid-accelerated Waxman
// generator and the capacities, demands, session sizes, and member
// popularity follow the named workload distributions. Either way, fixed IP
// routes follow BRITE propagation delays, matching Setting A.
func NewScaleInstance(seed uint64, cfg ScaleConfig) (*ScaleInstance, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	r := rng.New(seed)
	wax := topology.DefaultWaxman(cfg.Nodes)
	wax.M = cfg.Degree
	wax.Capacity = cfg.Capacity
	var net *topology.Network
	var sessions []*overlay.Session
	if cfg.Scenario != "" {
		sc, err := workload.Get(cfg.Scenario)
		if err != nil {
			return nil, err
		}
		if net, err = topology.WaxmanGrid(wax, r.Split(0)); err != nil {
			return nil, err
		}
		sc.Capacities(net.Graph, r.Split(2))
		if sessions, err = sc.Sessions(cfg.Nodes, cfg.Sessions, r.Split(1)); err != nil {
			return nil, err
		}
	} else {
		var err error
		if cfg.TwoLevelASes > 0 {
			tl := topology.DefaultTwoLevel(cfg.TwoLevelASes, cfg.Nodes/cfg.TwoLevelASes)
			tl.MRouter = cfg.Degree
			tl.Capacity = cfg.Capacity
			net, err = topology.TwoLevel(tl, r.Split(0))
		} else {
			net, err = topology.Waxman(wax, r.Split(0))
		}
		if err != nil {
			return nil, err
		}
		memberRNG := r.Split(1)
		sessions = make([]*overlay.Session, cfg.Sessions)
		for i := range sessions {
			members := memberRNG.Split(uint64(i)).Sample(cfg.Nodes, cfg.SessionSize)
			s, err := overlay.NewSession(i, members, cfg.Demand)
			if err != nil {
				return nil, err
			}
			sessions[i] = s
		}
	}
	mode := core.RoutingIP
	if cfg.Arbitrary {
		mode = core.RoutingArbitrary
	}
	p, err := core.NewProblemWeighted(net.Graph, sessions, mode, net.LinkDelays())
	if err != nil {
		return nil, err
	}
	return &ScaleInstance{Seed: seed, Config: cfg, Net: net, Sessions: sessions, Problem: p}, nil
}

// MaxFlow solves the M1 FPTAS on the instance with the config's worker-pool
// size.
func (si *ScaleInstance) MaxFlow(eps float64) (*core.Solution, error) {
	return core.MaxFlow(si.Problem, core.MaxFlowOptions{Epsilon: eps, SolverOptions: si.Config.SolverOptions})
}

// MCF solves the M2 FPTAS on the instance (no surplus pass: the scale tier
// measures the core phase loop, not the back-fill heuristic) with the
// config's worker-pool size.
func (si *ScaleInstance) MCF(eps float64) (*core.MCFResult, error) {
	return core.MaxConcurrentFlow(si.Problem, core.MaxConcurrentFlowOptions{Epsilon: eps, SolverOptions: si.Config.SolverOptions})
}

// ScaleRow is one solved scenario of a scale suite run.
type ScaleRow struct {
	Config     ScaleConfig
	Edges      int
	Solver     string // "maxflow" or "mcf"
	Throughput float64
	Lambda     float64 // MCF only
	MSTOps     int
	// Plane carries the solver's shared-SSSP-plane counters (zero under
	// fixed routing or with the plane disabled).
	Plane     overlay.PlaneStats
	BuildTime time.Duration
	SolveTime time.Duration
}

// String renders the row for cmd/experiments output.
func (r ScaleRow) String() string {
	extra := ""
	if r.Solver == "mcf" {
		extra = fmt.Sprintf(" lambda=%.4f", r.Lambda)
	}
	if r.Plane.Rounds > 0 {
		extra += fmt.Sprintf(" dedup=%.2fx", r.Plane.Dedup())
		if r.Plane.Skipped+r.Plane.Repaired > 0 {
			extra += fmt.Sprintf(" repair=%.0f%%", 100*r.Plane.RepairRate())
		}
	}
	return fmt.Sprintf("%-22s |E|=%-6d %-7s thpt=%-12.2f%s mstops=%-7d build=%-10v solve=%v",
		r.Config.Name(), r.Edges, r.Solver, r.Throughput, extra, r.MSTOps,
		r.BuildTime.Round(time.Millisecond), r.SolveTime.Round(time.Millisecond))
}

// ScaleSuite builds and solves each configuration with both solvers at the
// given epsilon, returning one row per (config, solver). Seeds derive from
// the base seed and the config index, so the suite is fully deterministic.
func ScaleSuite(seed uint64, eps float64, cfgs []ScaleConfig) ([]ScaleRow, error) {
	var rows []ScaleRow
	for ci, cfg := range cfgs {
		start := time.Now()
		si, err := NewScaleInstance(seed+uint64(ci), cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: scale %s: %w", cfg.Name(), err)
		}
		build := time.Since(start)

		start = time.Now()
		mf, err := si.MaxFlow(eps)
		if err != nil {
			return nil, fmt.Errorf("experiments: scale %s maxflow: %w", cfg.Name(), err)
		}
		rows = append(rows, ScaleRow{
			Config: si.Config, Edges: si.Net.Graph.NumEdges(), Solver: "maxflow",
			Throughput: mf.OverallThroughput(), MSTOps: mf.MSTOps, Plane: mf.Plane,
			BuildTime: build, SolveTime: time.Since(start),
		})

		start = time.Now()
		mcf, err := si.MCF(eps)
		if err != nil {
			return nil, fmt.Errorf("experiments: scale %s mcf: %w", cfg.Name(), err)
		}
		rows = append(rows, ScaleRow{
			Config: si.Config, Edges: si.Net.Graph.NumEdges(), Solver: "mcf",
			Throughput: mcf.OverallThroughput(), Lambda: mcf.Lambda, MSTOps: mcf.MSTOps,
			Plane: mcf.Plane, BuildTime: build, SolveTime: time.Since(start),
		})
	}
	return rows, nil
}

// DefaultScaleSuite returns the large-instance tier: 2,000-10,000 node
// topologies with 64-256 competing sessions under both routing models.
func DefaultScaleSuite() []ScaleConfig {
	return []ScaleConfig{
		{Nodes: 2000, Sessions: 64, SessionSize: 6},
		{Nodes: 2000, Sessions: 64, SessionSize: 6, Arbitrary: true},
		{Nodes: 5000, Sessions: 128, SessionSize: 6},
		{Nodes: 10000, Sessions: 256, SessionSize: 4},
	}
}

// SmallScaleSuite returns a reduced tier that finishes in seconds, used by
// `-scale small` smoke runs.
func SmallScaleSuite() []ScaleConfig {
	return []ScaleConfig{
		{Nodes: 300, Sessions: 16, SessionSize: 5},
		{Nodes: 300, Sessions: 16, SessionSize: 5, Arbitrary: true},
	}
}

// ScenarioScaleSuite sweeps the named workload scenarios over the large
// tier: every scenario at 2,000 x 64 under fixed routing, plus a 5,000 x 128
// fixed instance and a 2,000 x 64 arbitrary-routing instance per scenario.
// An empty scenario list means every registered scenario.
func ScenarioScaleSuite(scenarios []string) ([]ScaleConfig, error) {
	if len(scenarios) == 0 {
		scenarios = workload.Names()
	}
	var cfgs []ScaleConfig
	for _, name := range scenarios {
		if _, err := workload.Get(name); err != nil {
			return nil, err
		}
		cfgs = append(cfgs,
			ScaleConfig{Nodes: 2000, Sessions: 64, Scenario: name},
			ScaleConfig{Nodes: 2000, Sessions: 64, Scenario: name, Arbitrary: true},
			ScaleConfig{Nodes: 5000, Sessions: 128, Scenario: name},
		)
	}
	return cfgs, nil
}

// SmallScenarioSuite returns one quick fixed-routing instance per requested
// scenario (all registered scenarios when the list is empty), for smoke runs
// and the CI determinism gate.
func SmallScenarioSuite(scenarios []string) ([]ScaleConfig, error) {
	if len(scenarios) == 0 {
		scenarios = workload.Names()
	}
	var cfgs []ScaleConfig
	for _, name := range scenarios {
		if _, err := workload.Get(name); err != nil {
			return nil, err
		}
		cfgs = append(cfgs, ScaleConfig{Nodes: 300, Sessions: 12, Scenario: name})
	}
	return cfgs, nil
}
