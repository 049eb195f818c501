package experiments

import (
	"fmt"

	"overcast/internal/core"
	"overcast/internal/graph"
	"overcast/internal/overlay"
	"overcast/internal/rng"
	"overcast/internal/stats"
	"overcast/internal/topology"
)

// SettingB is the Sec. VI environment: a two-level AS/router topology over
// which grids of (session count x average session size) are swept.
type SettingB struct {
	Seed uint64
	Net  *topology.Network
	// SolverOptions sets every cell's oracle worker-pool size (0 keeps the
	// solvers sequential; the grid already parallelizes across cells) and
	// plane mode. Results are bit-identical for every value.
	core.SolverOptions
}

// SettingBConfig scales the Sec. VI environment. The paper uses 10 ASes x
// 100 routers; tests and default benches use smaller values.
type SettingBConfig struct {
	ASes         int
	RoutersPerAS int
	Capacity     float64
}

// DefaultSettingB returns the paper's Sec. VI topology parameters.
func DefaultSettingB() SettingBConfig {
	return SettingBConfig{ASes: 10, RoutersPerAS: 100, Capacity: 100}
}

// NewSettingB builds the two-level network deterministically.
func NewSettingB(seed uint64, cfg SettingBConfig) (*SettingB, error) {
	tl := topology.DefaultTwoLevel(cfg.ASes, cfg.RoutersPerAS)
	if cfg.Capacity > 0 {
		tl.Capacity = cfg.Capacity
	}
	net, err := topology.TwoLevel(tl, rng.New(seed).Split(0))
	if err != nil {
		return nil, err
	}
	return &SettingB{Seed: seed, Net: net}, nil
}

// GridConfig configures the Sec. VI sweeps.
type GridConfig struct {
	SessionCounts []int   // paper: 1..9
	SessionSizes  []int   // paper: 10..90 (average session size)
	Ratio         float64 // approximation ratio (paper: 0.95)
	Demand        float64 // per-session demand (paper: 1)
}

// DefaultGrid returns the paper's Sec. VI sweep parameters.
func DefaultGrid() GridConfig {
	return GridConfig{
		SessionCounts: []int{1, 2, 3, 4, 5, 6, 7, 8, 9},
		SessionSizes:  []int{10, 20, 30, 40, 50, 60, 70, 80, 90},
		Ratio:         0.95,
		Demand:        1,
	}
}

// GridCell is the full measurement of one (sessions, size) grid point.
type GridCell struct {
	Sessions, Size int
	// MaxFlow metrics (Fig. 12).
	MFThroughput float64
	// MaxConcurrentFlow metrics (Figs. 15, 16).
	MCFThroughput float64
	MCFMinRate    float64
	// EdgesPerNode is the average number of distinct physical edges a
	// session member's routes traverse (Fig. 13).
	EdgesPerNode float64
	// Utilization curves over covered links (Fig. 14).
	MFUtilCDF  []stats.Point
	MCFUtilCDF []stats.Point
	// Tree-rate CDF of the first session under MaxFlow (Fig. 17).
	MFTreeRateCDF []stats.Point
}

// GridResult indexes cells and exposes the paper's surfaces.
type GridResult struct {
	Cells map[[2]int]*GridCell
	// Fig. 12: overall MaxFlow throughput.
	Throughput *stats.Surface
	// Fig. 13: physical edges per node.
	EdgesPerNode *stats.Surface
	// Fig. 15: minimum session rate under MaxConcurrentFlow.
	MinRate *stats.Surface
	// Fig. 16: MCF/MF throughput ratio.
	ThroughputRatio *stats.Surface
}

// buildSessions draws count sessions of the given size with distinct random
// members (sessions may overlap each other, as in the paper).
func (b *SettingB) buildSessions(count, size int, demand float64, r *rng.RNG) ([]*overlay.Session, error) {
	n := b.Net.Graph.NumNodes()
	if size > n {
		return nil, fmt.Errorf("experiments: session size %d exceeds %d nodes", size, n)
	}
	sessions := make([]*overlay.Session, count)
	for i := 0; i < count; i++ {
		s, err := overlay.NewSession(i, r.Split(uint64(i)).Sample(n, size), demand)
		if err != nil {
			return nil, err
		}
		sessions[i] = s
	}
	return sessions, nil
}

// Grid runs MaxFlow and MaxConcurrentFlow over the whole grid; cells are
// computed concurrently with per-cell split RNGs.
func (b *SettingB) Grid(cfg GridConfig) (*GridResult, error) {
	type cellJob struct{ count, size int }
	var jobs []cellJob
	for _, c := range cfg.SessionCounts {
		for _, s := range cfg.SessionSizes {
			jobs = append(jobs, cellJob{c, s})
		}
	}
	res := &GridResult{
		Cells:           make(map[[2]int]*GridCell, len(jobs)),
		Throughput:      stats.NewSurface("sessions", cfg.SessionCounts, "size", cfg.SessionSizes),
		EdgesPerNode:    stats.NewSurface("sessions", cfg.SessionCounts, "size", cfg.SessionSizes),
		MinRate:         stats.NewSurface("sessions", cfg.SessionCounts, "size", cfg.SessionSizes),
		ThroughputRatio: stats.NewSurface("sessions", cfg.SessionCounts, "size", cfg.SessionSizes),
	}
	cells := make([]*GridCell, len(jobs))
	errs := make([]error, len(jobs))
	root := rng.New(b.Seed ^ 0xb)
	parallelFor(len(jobs), func(j int) {
		job := jobs[j]
		cell, err := b.runCell(job.count, job.size, cfg, root.Split(uint64(j)))
		cells[j] = cell
		errs[j] = err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, cell := range cells {
		res.Cells[[2]int{cell.Sessions, cell.Size}] = cell
		res.Throughput.Set(cell.Sessions, cell.Size, cell.MFThroughput)
		res.EdgesPerNode.Set(cell.Sessions, cell.Size, cell.EdgesPerNode)
		res.MinRate.Set(cell.Sessions, cell.Size, cell.MCFMinRate)
		ratio := 0.0
		if cell.MFThroughput > 0 {
			ratio = cell.MCFThroughput / cell.MFThroughput
		}
		res.ThroughputRatio.Set(cell.Sessions, cell.Size, ratio)
	}
	return res, nil
}

func (b *SettingB) runCell(count, size int, cfg GridConfig, r *rng.RNG) (*GridCell, error) {
	sessions, err := b.buildSessions(count, size, cfg.Demand, r)
	if err != nil {
		return nil, err
	}
	p, err := core.NewProblemWeighted(b.Net.Graph, sessions, core.RoutingIP, b.Net.LinkDelays())
	if err != nil {
		return nil, err
	}
	eps := core.RatioToEpsilon(cfg.Ratio)
	mf, err := core.MaxFlow(p, core.MaxFlowOptions{Epsilon: eps, SolverOptions: b.SolverOptions})
	if err != nil {
		return nil, fmt.Errorf("experiments: cell (%d,%d) MaxFlow: %w", count, size, err)
	}
	mcf, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{Epsilon: core.MCFRatioToEpsilon(cfg.Ratio), SolverOptions: b.SolverOptions})
	if err != nil {
		return nil, fmt.Errorf("experiments: cell (%d,%d) MCF: %w", count, size, err)
	}
	cell := &GridCell{
		Sessions:      count,
		Size:          size,
		MFThroughput:  mf.OverallThroughput(),
		MCFThroughput: mcf.OverallThroughput(),
		MCFMinRate:    mcf.MinSessionRate(),
		MFUtilCDF:     LinkUtilizationCDF(mf),
		MCFUtilCDF:    LinkUtilizationCDF(mcf.Solution),
		MFTreeRateCDF: stats.AccumulativeRateCDF(mf.RateDistribution(0)),
	}
	cell.EdgesPerNode = edgesPerNode(p)
	return cell, nil
}

// edgesPerNode measures Fig. 13's metric: for every session member, the
// number of distinct physical edges on its unicast routes to the other
// members of its session, averaged over all members of all sessions.
func edgesPerNode(p *core.Problem) float64 {
	var members []graph.NodeID
	for _, s := range p.Sessions {
		members = append(members, s.Members...)
	}
	rt := ipRoutesFor(p, members)
	total, nodes := 0, 0
	for _, s := range p.Sessions {
		for _, m := range s.Members {
			distinct := make(map[graph.EdgeID]bool)
			for _, o := range s.Members {
				if o == m {
					continue
				}
				path, err := rt.Route(m, o)
				if err != nil {
					continue
				}
				for _, e := range path.Edges {
					distinct[e] = true
				}
			}
			total += len(distinct)
			nodes++
		}
	}
	if nodes == 0 {
		return 0
	}
	return float64(total) / float64(nodes)
}

// OnlineGridResult holds the Fig. 18/19 ratio surfaces per tree limit.
type OnlineGridResult struct {
	// ThroughputRatio[limit] = online throughput / MaxFlow throughput.
	ThroughputRatio map[int]*stats.Surface
	// MinRateRatio[limit] = online min base-session rate / MCF min rate.
	MinRateRatio map[int]*stats.Surface
}

// OnlineGrid reproduces Figs. 18/19: for each grid cell, replicate every
// session `limit` times, admit in random order with the online algorithm
// (step size mu), and compare against the offline optima. Trials averages
// over arrival orders.
func (b *SettingB) OnlineGrid(cfg GridConfig, limits []int, mu float64, trials int) (*OnlineGridResult, error) {
	if trials < 1 {
		return nil, fmt.Errorf("experiments: trials must be >=1")
	}
	res := &OnlineGridResult{
		ThroughputRatio: make(map[int]*stats.Surface, len(limits)),
		MinRateRatio:    make(map[int]*stats.Surface, len(limits)),
	}
	for _, l := range limits {
		res.ThroughputRatio[l] = stats.NewSurface("sessions", cfg.SessionCounts, "size", cfg.SessionSizes)
		res.MinRateRatio[l] = stats.NewSurface("sessions", cfg.SessionCounts, "size", cfg.SessionSizes)
	}
	type job struct{ count, size int }
	var jobs []job
	for _, c := range cfg.SessionCounts {
		for _, s := range cfg.SessionSizes {
			jobs = append(jobs, job{c, s})
		}
	}
	type cellOut struct {
		tpRatio, mrRatio map[int]float64
	}
	outs := make([]cellOut, len(jobs))
	errs := make([]error, len(jobs))
	root := rng.New(b.Seed ^ 0x18)
	parallelFor(len(jobs), func(j int) {
		outs[j].tpRatio = make(map[int]float64, len(limits))
		outs[j].mrRatio = make(map[int]float64, len(limits))
		errs[j] = b.runOnlineCell(jobs[j].count, jobs[j].size, cfg, limits, mu, trials, root.Split(uint64(j)), &outs[j].tpRatio, &outs[j].mrRatio)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for j, jb := range jobs {
		for _, l := range limits {
			res.ThroughputRatio[l].Set(jb.count, jb.size, outs[j].tpRatio[l])
			res.MinRateRatio[l].Set(jb.count, jb.size, outs[j].mrRatio[l])
		}
	}
	return res, nil
}

func (b *SettingB) runOnlineCell(count, size int, cfg GridConfig, limits []int, mu float64, trials int, r *rng.RNG, tpOut, mrOut *map[int]float64) error {
	sessions, err := b.buildSessions(count, size, cfg.Demand, r.Split(0))
	if err != nil {
		return err
	}
	p, err := core.NewProblemWeighted(b.Net.Graph, sessions, core.RoutingIP, b.Net.LinkDelays())
	if err != nil {
		return err
	}
	mf, err := core.MaxFlow(p, core.MaxFlowOptions{Epsilon: core.RatioToEpsilon(cfg.Ratio)})
	if err != nil {
		return err
	}
	mcf, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{Epsilon: core.MCFRatioToEpsilon(cfg.Ratio)})
	if err != nil {
		return err
	}
	var members []graph.NodeID
	for _, s := range sessions {
		members = append(members, s.Members...)
	}
	rt := ipRoutesFor(p, members)
	for li, limit := range limits {
		tpSum, mrSum := 0.0, 0.0
		for t := 0; t < trials; t++ {
			tr := r.Split(uint64(1 + li*10007 + t))
			arrivals := make([]int, 0, limit*count)
			for rep := 0; rep < limit; rep++ {
				for i := 0; i < count; i++ {
					arrivals = append(arrivals, i)
				}
			}
			tr.Shuffle(arrivals)
			on, err := core.NewOnline(p.G, mu)
			if err != nil {
				return err
			}
			for idx, baseIdx := range arrivals {
				s, err := overlay.NewSession(idx, sessions[baseIdx].Members, cfg.Demand/float64(limit))
				if err != nil {
					return err
				}
				oracle, err := overlay.NewFixedOracle(p.G, rt, s)
				if err != nil {
					return err
				}
				if _, err := on.Join(oracle); err != nil {
					return err
				}
			}
			sol, err := on.Finalize()
			if err != nil {
				return err
			}
			baseRate := make([]float64, count)
			tp := 0.0
			for idx, baseIdx := range arrivals {
				rate := sol.SessionRate(idx)
				baseRate[baseIdx] += rate
				tp += float64(sessions[baseIdx].Receivers()) * rate
			}
			minRate := baseRate[0]
			for _, v := range baseRate[1:] {
				if v < minRate {
					minRate = v
				}
			}
			tpSum += tp
			mrSum += minRate
		}
		tp := tpSum / float64(trials)
		mr := mrSum / float64(trials)
		if mft := mf.OverallThroughput(); mft > 0 {
			(*tpOut)[limit] = tp / mft
		}
		if mcfMin := mcf.MinSessionRate(); mcfMin > 0 {
			(*mrOut)[limit] = mr / mcfMin
		}
	}
	return nil
}
