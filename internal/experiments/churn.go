package experiments

// The churn tier drives the paper's online allocator (Table VI) with dynamic
// arrival/departure traces whose session sizes, demands, and member
// popularity come from the internal/workload scenario registry — the same
// mixes the static scale tier sweeps — instead of a fixed uniform size
// range. Joins are inherently sequential (each arrival routes under lengths
// the previous arrivals inflated), but everything an arrival needs that does
// not depend on allocator state — its member-restricted IP route tables and
// tree oracle — is prefabricated across the worker pool before the replay,
// so the sequential section is just the Table VI length updates.

import (
	"fmt"
	"runtime"
	"time"

	"overcast/internal/churn"
	"overcast/internal/core"
	"overcast/internal/graph"
	"overcast/internal/overlay"
	"overcast/internal/rng"
	"overcast/internal/routing"
	"overcast/internal/topology"
	"overcast/internal/workload"
)

// ChurnConfig describes one scenario-driven online/churn run.
type ChurnConfig struct {
	Nodes    int    // topology size (grid-accelerated Waxman)
	Scenario string // workload scenario name (default "uniform")
	// Arrival process (sessions per time unit, exponential mean lifetime,
	// trace length).
	ArrivalRate  float64
	MeanLifetime float64
	Horizon      float64
	Mu           float64 // online step size (default 30)
	Arbitrary    bool    // arbitrary dynamic routing instead of fixed IP
	// SolverOptions: Workers bounds the oracle-prefabrication pool (0 =
	// GOMAXPROCS); any plane mode but PlaneOff batches fixed-routing oracle
	// prefabrication on a shared SSSP plane (one weighted Dijkstra per
	// *distinct* member instead of per session-member pair). The replay
	// itself is sequential by construction, so results are bit-identical for
	// every value.
	core.SolverOptions
}

func (c *ChurnConfig) normalize() error {
	if c.Nodes < 8 {
		return fmt.Errorf("experiments: churn run needs >=8 nodes, got %d", c.Nodes)
	}
	if c.Scenario == "" {
		c.Scenario = "uniform"
	}
	if c.ArrivalRate <= 0 {
		c.ArrivalRate = 2
	}
	if c.MeanLifetime <= 0 {
		c.MeanLifetime = 5
	}
	if c.Horizon <= 0 {
		c.Horizon = 25
	}
	if c.Mu <= 0 {
		c.Mu = 30
	}
	return nil
}

// ChurnReport summarizes a replayed trace.
type ChurnReport struct {
	Config          ChurnConfig
	Edges           int
	Sessions        int // sessions in the trace
	PeakConcurrency int
	// PeakCongestion is the maximum over events of the full-demand link
	// congestion max_e l_e.
	PeakCongestion float64
	// FinalActive counts the sessions alive when the trace ends (their
	// departures were clipped to the horizon).
	FinalActive int
	MSTOps      int
	// Plane reports the prefabrication plane's dedup counters: one round,
	// Sources distinct member Dijkstras serving Requests session-member
	// route-table slots. Zero when disabled or in arbitrary mode (which
	// prefabricates no route tables at all).
	Plane overlay.PlaneStats
	// Throughput and MinRate describe the feasible allocation of the
	// sessions still active at the horizon (zero when none survive).
	Throughput float64
	MinRate    float64
	BuildTime  time.Duration
	ReplayTime time.Duration
}

// String renders the report for cmd/experiments output.
func (r ChurnReport) String() string {
	plane := ""
	if r.Plane.Rounds > 0 {
		plane = fmt.Sprintf(" dedup=%.2fx", r.Plane.Dedup())
	}
	return fmt.Sprintf("%-13s n=%-6d |E|=%-6d sessions=%-5d peak=%-4d maxcong=%-10.3f active=%-4d thpt=%-12.2f minrate=%-10.4f mstops=%-5d%s build=%-10v replay=%v",
		r.Config.Scenario, r.Config.Nodes, r.Edges, r.Sessions, r.PeakConcurrency,
		r.PeakCongestion, r.FinalActive, r.Throughput, r.MinRate, r.MSTOps, plane,
		r.BuildTime.Round(time.Millisecond), r.ReplayTime.Round(time.Millisecond))
}

// ChurnRun generates a deterministic scenario-driven churn trace over a
// grid-Waxman topology and replays it through the online allocator: joins
// pick the minimum overlay spanning tree under the current lengths, leaves
// roll their length inflation back exactly. Oracles for every trace session
// are prefabricated across the worker pool (their fixed routes depend only
// on the static topology), so the sequential replay performs no route
// resolution.
func ChurnRun(seed uint64, cfg ChurnConfig) (*ChurnReport, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	sc, err := workload.Get(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	r := rng.New(seed)
	wax := topology.DefaultWaxman(cfg.Nodes)
	net, err := topology.WaxmanGrid(wax, r.Split(0))
	if err != nil {
		return nil, err
	}
	sc.Capacities(net.Graph, r.Split(2))
	trace, err := churn.GenerateScenario(churn.Config{
		Nodes:        cfg.Nodes,
		ArrivalRate:  cfg.ArrivalRate,
		MeanLifetime: cfg.MeanLifetime,
		Horizon:      cfg.Horizon,
	}, sc, r.Split(1))
	if err != nil {
		return nil, err
	}

	// Prefabricate the per-session route tables and oracles: independent of
	// allocator state, so they batch across the worker pool with i-indexed
	// result slots (scheduling cannot change the replay's inputs).
	//
	// Every fixed-routing table derives from the same static delay snapshot,
	// so the trace-wide member union's weighted Dijkstra trees are computed
	// once on a shared SSSP plane and each session's table is assembled from
	// plane rows — sessions sharing Zipf-hot members stop recomputing each
	// other's trees. Plane rows are read-only after Fill, so the assembly
	// fan-out below may read them concurrently. Arbitrary mode prefabricates
	// no route tables at all (the dynamic oracle routes under the
	// allocator's lengths).
	delays := net.LinkDelays()
	oracles := make([]overlay.TreeOracle, len(trace.Sessions))
	oracleErrs := make([]error, len(trace.Sessions))
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var plane *overlay.Plane
	var planeMetrics overlay.PlaneStats
	if !cfg.Arbitrary && cfg.Plane != overlay.PlaneOff {
		plane = overlay.NewPlane(net.Graph)
		requests := 0
		for _, spec := range trace.Sessions {
			requests += len(spec.Members)
			for _, m := range spec.Members {
				plane.Stage(m)
			}
		}
		plane.Fill(delays, workers)
		planeMetrics = overlay.PlaneStats{Rounds: 1, Sources: plane.NumSources(), Requests: requests}
	}
	parallelWorkers(workers, len(trace.Sessions), func(i int) {
		spec := trace.Sessions[i]
		s, err := overlay.NewSession(i, spec.Members, spec.Demand)
		if err != nil {
			oracleErrs[i] = err
			return
		}
		if cfg.Arbitrary {
			oracles[i], oracleErrs[i] = overlay.NewArbitraryOracle(net.Graph, s)
			return
		}
		var rt *routing.IPRoutes
		if plane != nil {
			rt = routing.NewWeightedIPRoutesFromTrees(net.Graph, s.Members, func(src graph.NodeID) []graph.EdgeID {
				_, parent, ok := plane.Lookup(src)
				if !ok {
					// Every trace member was staged above; reaching this
					// means the trace and plane disagree.
					panic(fmt.Sprintf("experiments: churn member %d missing from prefab plane", src))
				}
				return parent
			})
		} else {
			rt = routing.NewWeightedIPRoutes(net.Graph, s.Members, delays)
		}
		oracles[i], oracleErrs[i] = overlay.NewFixedOracle(net.Graph, rt, s)
	})
	for i, err := range oracleErrs {
		if err != nil {
			return nil, fmt.Errorf("experiments: churn session %d: %w", i, err)
		}
	}
	build := time.Since(start)

	start = time.Now()
	on, err := core.NewOnline(net.Graph, cfg.Mu)
	if err != nil {
		return nil, err
	}
	rep := &ChurnReport{
		Config: cfg, Edges: net.Graph.NumEdges(),
		Sessions: len(trace.Sessions), PeakConcurrency: trace.PeakConcurrency(),
		Plane:     planeMetrics,
		BuildTime: build,
	}
	arrivalIdx := make(map[int]int, len(trace.Sessions))
	for _, ev := range trace.Events {
		switch ev.Kind {
		case churn.Join:
			if _, err := on.Join(oracles[ev.Session]); err != nil {
				return nil, fmt.Errorf("experiments: churn join %d: %w", ev.Session, err)
			}
			arrivalIdx[ev.Session] = on.NumSessions() - 1
		case churn.Leave:
			// Departures the generator clipped to the horizon are sessions
			// still alive when the trace ends; keep them admitted so the
			// final allocation describes the surviving population.
			if trace.Sessions[ev.Session].Depart >= cfg.Horizon {
				continue
			}
			if err := on.Leave(arrivalIdx[ev.Session]); err != nil {
				return nil, fmt.Errorf("experiments: churn leave %d: %w", ev.Session, err)
			}
		}
		if c := on.MaxCongestion(); c > rep.PeakCongestion {
			rep.PeakCongestion = c
		}
	}
	rep.FinalActive = on.ActiveSessions()
	rep.MSTOps = on.MSTOps()
	if rep.FinalActive > 0 {
		sol, err := on.Finalize()
		if err != nil {
			return nil, err
		}
		rep.Throughput = sol.OverallThroughput()
		rep.MinRate = sol.MinSessionRate()
	}
	rep.ReplayTime = time.Since(start)
	return rep, nil
}

// ChurnSuite replays one trace per requested scenario (all registered
// scenarios when the list is empty) with shared arrival parameters. Seeds
// derive from the base seed and the scenario index, so the suite is fully
// deterministic.
func ChurnSuite(seed uint64, nodes int, solver core.SolverOptions, scenarios []string) ([]ChurnReport, error) {
	if len(scenarios) == 0 {
		scenarios = workload.Names()
	}
	reports := make([]ChurnReport, 0, len(scenarios))
	for si, name := range scenarios {
		if _, err := workload.Get(name); err != nil {
			return nil, err
		}
		rep, err := ChurnRun(seed+uint64(si), ChurnConfig{Nodes: nodes, Scenario: name, SolverOptions: solver})
		if err != nil {
			return nil, fmt.Errorf("experiments: churn %s: %w", name, err)
		}
		reports = append(reports, *rep)
	}
	return reports, nil
}
