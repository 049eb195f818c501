package experiments

// The per-scenario report is the first cut of the ROADMAP "which allocation
// wins where" sweep: for every workload scenario, solve the same instance
// with both allocation objectives — MaxFlow (M1, weighted aggregate
// throughput) and MaxConcurrentFlow (M2, weighted max-min fairness) — and
// tabulate the axes the paper argues about: link utilization, the minimum
// session rate, and rate fairness. MF should win utilization/throughput,
// MCF min-rate and fairness; the table quantifies by how much per workload
// mix, at a small and a medium tier.

import (
	"fmt"
	"strings"

	"overcast/internal/core"
	"overcast/internal/stats"
	"overcast/internal/workload"
)

// ReportTier names one instance size of the MF-vs-MCF report.
type ReportTier struct {
	Name     string
	Nodes    int
	Sessions int
}

// DefaultReportTiers returns the small and medium tiers: sized so the full
// 5-scenario x 2-solver sweep stays in CI-friendly territory while being
// large enough for the scenarios' distributions to show.
func DefaultReportTiers() []ReportTier {
	return []ReportTier{
		{Name: "small", Nodes: 300, Sessions: 12},
		{Name: "medium", Nodes: 600, Sessions: 24},
	}
}

// ReportRow is one (scenario, tier, solver) result of the MF-vs-MCF report.
type ReportRow struct {
	Scenario string
	Tier     string
	Edges    int
	Solver   string // "maxflow" or "mcf"
	// Throughput is the overall receiving rate Σ_i (|S_i|-1)·rate_i.
	Throughput float64
	// MinRatio is min_i rate_i/dem(i), the demand-satisfaction floor (the
	// M2 objective; for MaxFlow it shows what aggregate optimization costs
	// the weakest session).
	MinRatio float64
	// MeanUtil is the mean utilization over links carrying traffic (the
	// paper's link-utilization plots count only covered links).
	MeanUtil float64
	// Fairness is Jain's index over the demand-satisfaction ratios
	// rate_i/dem(i): 1 = perfectly proportional, 1/k = one session takes
	// all. Computed on ratios, not raw rates, so heterogeneous demands do
	// not masquerade as unfairness.
	Fairness float64
}

// reportRow summarizes one solved instance into a row.
func reportRow(scenario, tier, solver string, si *ScaleInstance, sol *core.Solution) ReportRow {
	ratios := make([]float64, len(si.Sessions))
	minRatio := -1.0
	for i, s := range si.Sessions {
		ratios[i] = sol.SessionRate(i) / s.Demand
		if minRatio < 0 || ratios[i] < minRatio {
			minRatio = ratios[i]
		}
	}
	utils := sol.Utilizations()
	meanUtil := 0.0
	for _, u := range utils {
		meanUtil += u
	}
	if len(utils) > 0 {
		meanUtil /= float64(len(utils))
	}
	return ReportRow{
		Scenario: scenario, Tier: tier, Edges: si.Net.Graph.NumEdges(), Solver: solver,
		Throughput: sol.OverallThroughput(), MinRatio: minRatio,
		MeanUtil: meanUtil, Fairness: stats.JainIndex(ratios),
	}
}

// MFvsMCFReport builds one instance per (scenario, tier), solves it with
// both objectives, and returns two rows per instance (MaxFlow first). Seeds
// derive from the base seed, the scenario's position in the *registry* (not
// in the requested list — so a single-scenario invocation reproduces the
// exact rows of the full table), and the tier index; the report is fully
// deterministic (it is part of the detdump fingerprint) and bit-identical for
// every solver setting. An empty scenario list means every registered
// scenario.
func MFvsMCFReport(seed uint64, eps float64, solver core.SolverOptions, scenarios []string, tiers []ReportTier) ([]ReportRow, error) {
	if len(scenarios) == 0 {
		scenarios = workload.Names()
	}
	if len(tiers) == 0 {
		tiers = DefaultReportTiers()
	}
	registryIndex := make(map[string]int, len(workload.Names()))
	for i, name := range workload.Names() {
		registryIndex[name] = i
	}
	var rows []ReportRow
	for _, name := range scenarios {
		if _, err := workload.Get(name); err != nil {
			return nil, err
		}
		sci := registryIndex[name]
		for ti, tier := range tiers {
			si, err := NewScaleInstance(seed+uint64(100*sci+ti), ScaleConfig{
				Nodes: tier.Nodes, Sessions: tier.Sessions, Scenario: name,
				SolverOptions: solver,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: report %s/%s: %w", name, tier.Name, err)
			}
			mf, err := si.MaxFlow(eps)
			if err != nil {
				return nil, fmt.Errorf("experiments: report %s/%s maxflow: %w", name, tier.Name, err)
			}
			rows = append(rows, reportRow(name, tier.Name, "maxflow", si, mf))
			mcf, err := si.MCF(eps)
			if err != nil {
				return nil, fmt.Errorf("experiments: report %s/%s mcf: %w", name, tier.Name, err)
			}
			rows = append(rows, reportRow(name, tier.Name, "mcf", si, mcf.Solution))
		}
	}
	return rows, nil
}

// RenderReport renders the rows as an aligned MF-vs-MCF table, pairing the
// two solvers of each instance on consecutive lines.
func RenderReport(rows []ReportRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-13s %-7s %-7s %-8s %12s %10s %9s %9s\n",
		"scenario", "tier", "|E|", "solver", "throughput", "min-ratio", "meanutil", "fairness")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-13s %-7s %-7d %-8s %12.2f %10.4f %9.4f %9.4f\n",
			r.Scenario, r.Tier, r.Edges, r.Solver, r.Throughput, r.MinRatio, r.MeanUtil, r.Fairness)
	}
	return sb.String()
}
