package admin

import (
	"fmt"
	"sort"
	"strings"
)

// PrometheusText renders a stats snapshot in the Prometheus text exposition
// format (version 0.0.4): one gauge or counter per daemon/allocator/plane
// counter, deterministically ordered so two identical snapshots render to
// identical bytes. The daemon serves this through the OpMetrics RPC; a
// sidecar (or overcastctl metrics piped to a textfile collector) turns it
// into a scrape target without the daemon growing an HTTP listener.
func PrometheusText(st *StatsResult) string {
	var b strings.Builder
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}

	gauge("overcastd_active_sessions", "Admitted sessions that have not left.", float64(st.Active))
	counter("overcastd_admitted_sessions_total", "Sessions ever admitted.", float64(st.Admitted))
	gauge("overcastd_epoch", "Allocator epoch (advances on join, leave, rebalance).", float64(st.Epoch))
	gauge("overcastd_max_congestion", "Online max link load/capacity ratio at full demands.", st.MaxCongestion)

	a := st.Allocator
	counter("overcastd_joins_total", "Successfully processed joins.", float64(a.Joins))
	counter("overcastd_leaves_total", "Successfully processed leaves.", float64(a.Leaves))
	counter("overcastd_cold_solves_total", "Full MaxConcurrentFlow re-solves behind refreshes.", float64(a.ColdSolves))
	counter("overcastd_warm_refreshes_total", "Refreshes served by warm-start incremental repair.", float64(a.WarmRefreshes))
	counter("overcastd_warm_fallbacks_total", "Warm repairs that fell back to a cold solve mid-way.", float64(a.WarmFallbacks))
	counter("overcastd_repair_phases_total", "Session-phases routed by warm repair.", float64(a.RepairPhases))
	counter("overcastd_mst_ops_total", "Spanning-tree computations (the paper's running-time unit).", float64(a.MSTOps))
	gauge("overcastd_anchor_certified_ratio", "Last cold solve's fair share over its weak-duality bound on the optimum (a lower bound on its approximation ratio).", a.AnchorCertifiedRatio)

	p := a.Plane
	counter("overcastd_plane_rounds_total", "Batch rounds that staged at least one shared-SSSP-plane row.", float64(p.Rounds))
	counter("overcastd_plane_sources_total", "SSSP rows computed by Dijkstra (plane misses).", float64(p.Sources))
	counter("overcastd_plane_requests_total", "Per-member SSSP reads served from the plane.", float64(p.Requests))
	counter("overcastd_plane_repaired_total", "Row refills forced by the cross-round dirty-source check.", float64(p.Repaired))
	counter("overcastd_plane_skipped_total", "Row refills the dirty-source check proved unnecessary.", float64(p.Skipped))
	counter("overcastd_plane_subtree_repaired_total", "Row refills downgraded to incremental subtree repairs (resumed Dijkstra over the dirty subtrees only).", float64(p.SubtreeRepaired))
	counter("overcastd_plane_subtree_nodes_total", "Nodes resettled by subtree repairs (divide by subtree_repaired for the mean repaired-region size).", float64(p.SubtreeNodes))
	counter("overcastd_plane_tree_hits_total", "Whole oracle evaluations served from the tree cache.", float64(p.TreeHits))
	gauge("overcastd_plane_dedup_ratio", "Member reads served per Dijkstra computed.", p.Dedup())
	gauge("overcastd_plane_repair_skip_ratio", "Fraction of row revalidations resolved without a full-row Dijkstra (skipped or subtree-repaired).", p.RepairRate())

	counter("overcastd_underlay_events_total", "Effective underlay fault events applied (link down/up, capacity drift).", float64(a.UnderlayEvents))
	counter("overcastd_plane_nonmonotone_refills_total", "Plane rows degraded from skip/repair to full refill by non-monotone length moves.", float64(p.NonMonotoneRefills))

	d := st.Daemon
	counter("overcastd_admission_rejected_total", "Joins refused by the admission policy.", float64(d.AdmissionRejected))
	counter("overcastd_state_snapshots_saved_total", "State snapshots persisted to disk.", float64(d.SnapshotsSaved))
	gauge("overcastd_restored", "1 when this process recovered from a state snapshot.", boolGauge(d.Restored))
	gauge("overcastd_uptime_seconds", "Seconds since the daemon started serving.", d.UptimeSeconds)
	gauge("overcastd_draining", "1 while the daemon drains.", boolGauge(d.Draining))

	fmt.Fprintf(&b, "# HELP overcastd_rpcs_total Served admin RPCs by op (failures included).\n# TYPE overcastd_rpcs_total counter\n")
	ops := make([]string, 0, len(d.RPCs))
	for op := range d.RPCs {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		fmt.Fprintf(&b, "overcastd_rpcs_total{op=%q} %d\n", op, d.RPCs[op])
	}
	return b.String()
}

func boolGauge(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
