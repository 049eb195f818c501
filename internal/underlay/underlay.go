// Package underlay generates and applies seeded underlay fault workloads:
// link failure/recovery traces, capacity drift walks, and correlated AS-level
// outages. Every scenario elsewhere in the library mutates sessions; this
// package mutates the *network* — the paper's setting is an overlay competing
// for underlay capacity, and real underlays fail, recover, and drift.
//
// The bridge to the solvers is the length ledger: Garg–Könemann lengths are
// dual prices d_e ∝ 1/c_e, so a capacity change by factor f mirrors onto a
// live graph.LengthStore as Bump(e, 1/f). A link failure (capacity collapses)
// is a monotone length growth — exactly the mutation shape the plane's
// dirty-source repair already tolerates — while a recovery or an upward drift
// *shrinks* a length, which is precisely what LengthStore.MonotoneSince was
// built to detect: repair-capable consumers must degrade to full refills and
// the warm engine must fall back cold. State computes those factors; the
// consumers' hardening lives with the consumers.
//
// A Damper implements BGP-style route-flap damping over an event stream:
// every recovery charges a per-link penalty that decays exponentially in
// trace time; a link whose penalty crosses the suppress threshold has its
// recoveries held (the link stays down, generating no churn at all) until the
// penalty decays below the reuse threshold. Under a fail/recover oscillation
// this bounds repair work to O(1) mutations per suppression cycle instead of
// O(flaps).
package underlay

import (
	"fmt"
	"math"
	"sort"

	"overcast/internal/graph"
	"overcast/internal/rng"
	"overcast/internal/topology"
)

// EventKind discriminates underlay fault events.
type EventKind int

const (
	// LinkDown fails a link: its capacity collapses to base·DownFactor.
	LinkDown EventKind = iota
	// LinkUp recovers a failed link to its (drift-adjusted) capacity.
	LinkUp
	// Drift multiplies a link's capacity by Event.Factor (a seeded
	// multiplicative walk models slow congestion/provisioning drift).
	Drift
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case Drift:
		return "drift"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one underlay fault event.
type Event struct {
	// Time orders the event within a trace (same clock as churn workloads).
	Time float64
	// Kind is the event type.
	Kind EventKind
	// Edge is the physical link the event hits.
	Edge graph.EdgeID
	// Factor is the multiplicative capacity factor of a Drift event (> 0);
	// ignored for LinkDown/LinkUp.
	Factor float64
}

// Trace is a time-sorted underlay fault workload.
type Trace struct {
	Events []Event
}

// Validate checks the trace against g: events sorted by time, edges in
// range, drift factors positive.
func (t *Trace) Validate(g *graph.Graph) error {
	prev := math.Inf(-1)
	for i, ev := range t.Events {
		if ev.Time < prev {
			return fmt.Errorf("underlay: event %d out of order at t=%v", i, ev.Time)
		}
		prev = ev.Time
		if ev.Edge < 0 || ev.Edge >= g.NumEdges() {
			return fmt.Errorf("underlay: event %d references edge %d outside graph", i, ev.Edge)
		}
		if ev.Kind == Drift && !(ev.Factor > 0) {
			return fmt.Errorf("underlay: drift event %d has non-positive factor %v", i, ev.Factor)
		}
	}
	return nil
}

// sortEvents orders events canonically: by time, then edge, then kind, so a
// trace assembled from per-edge streams is deterministic regardless of
// assembly order.
func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(a, b int) bool {
		ea, eb := evs[a], evs[b]
		if ea.Time != eb.Time {
			return ea.Time < eb.Time
		}
		if ea.Edge != eb.Edge {
			return ea.Edge < eb.Edge
		}
		return ea.Kind < eb.Kind
	})
}

// Merge combines traces into one canonically sorted trace.
func Merge(traces ...*Trace) *Trace {
	out := &Trace{}
	for _, t := range traces {
		if t != nil {
			out.Events = append(out.Events, t.Events...)
		}
	}
	sortEvents(out.Events)
	return out
}

// FailureConfig parametrizes an independent per-link fail/repair process.
type FailureConfig struct {
	// Edges restricts the process to these links (nil = every edge of g).
	Edges []graph.EdgeID
	// FailRate is the Poisson failure intensity of an up link (failures per
	// time unit); MeanRepair the exponential mean downtime.
	FailRate   float64
	MeanRepair float64
	// Horizon is the trace length; a link still down at the horizon stays
	// down (no clipped recovery is emitted).
	Horizon float64
}

// GenerateFailures materializes an alternating fail/recover trace per link,
// deterministically from r. Each link draws from its own Split(edge) child
// stream, so the trace is independent of edge iteration order.
func GenerateFailures(g *graph.Graph, cfg FailureConfig, r *rng.RNG) (*Trace, error) {
	if cfg.FailRate <= 0 || cfg.MeanRepair <= 0 || cfg.Horizon <= 0 {
		return nil, fmt.Errorf("underlay: failure rate, repair time, and horizon must be positive")
	}
	edges := cfg.Edges
	if edges == nil {
		edges = make([]graph.EdgeID, g.NumEdges())
		for e := range edges {
			edges[e] = e
		}
	}
	tr := &Trace{}
	for _, e := range edges {
		if e < 0 || e >= g.NumEdges() {
			return nil, fmt.Errorf("underlay: failure edge %d outside graph", e)
		}
		cr := r.Split(uint64(e))
		t := 0.0
		for {
			t += cr.ExpFloat64() / cfg.FailRate
			if t >= cfg.Horizon {
				break
			}
			tr.Events = append(tr.Events, Event{Time: t, Kind: LinkDown, Edge: e})
			t += cr.ExpFloat64() * cfg.MeanRepair
			if t >= cfg.Horizon {
				break
			}
			tr.Events = append(tr.Events, Event{Time: t, Kind: LinkUp, Edge: e})
		}
	}
	sortEvents(tr.Events)
	return tr, nil
}

// DriftConfig parametrizes a multiplicative capacity drift walk.
type DriftConfig struct {
	// Edges restricts the walk to these links (nil = every edge of g).
	Edges []graph.EdgeID
	// Steps is the number of sweeps; each sweep emits one Drift event per
	// edge. Interval is the time between sweeps (the first sweep lands at
	// Interval).
	Steps    int
	Interval float64
	// Sigma is the per-step lognormal volatility: each step multiplies the
	// capacity by exp(Sigma·N(0,1)).
	Sigma float64
	// Min/Max clamp the cumulative drift factor relative to the base
	// capacity (defaults 0.25 and 4).
	Min, Max float64
}

// GenerateDrift materializes a seeded multiplicative capacity walk: Steps
// sweeps over the edge set, each edge stepping by an independent lognormal
// factor clamped so the cumulative drift stays within [Min, Max] of base.
func GenerateDrift(g *graph.Graph, cfg DriftConfig, r *rng.RNG) (*Trace, error) {
	if cfg.Steps <= 0 || cfg.Interval <= 0 || cfg.Sigma <= 0 {
		return nil, fmt.Errorf("underlay: drift steps, interval, and sigma must be positive")
	}
	if cfg.Min <= 0 {
		cfg.Min = 0.25
	}
	if cfg.Max <= cfg.Min {
		cfg.Max = 4
	}
	edges := cfg.Edges
	if edges == nil {
		edges = make([]graph.EdgeID, g.NumEdges())
		for e := range edges {
			edges[e] = e
		}
	}
	cum := make(map[graph.EdgeID]float64, len(edges))
	tr := &Trace{}
	for s := 0; s < cfg.Steps; s++ {
		t := float64(s+1) * cfg.Interval
		for _, e := range edges {
			if e < 0 || e >= g.NumEdges() {
				return nil, fmt.Errorf("underlay: drift edge %d outside graph", e)
			}
			c := cum[e]
			if c == 0 {
				c = 1
			}
			// Per-(edge, step) child stream keeps the walk independent of
			// sweep iteration order.
			f := math.Exp(cfg.Sigma * r.Split(uint64(e)).Split(uint64(s)).NormFloat64())
			if c*f > cfg.Max {
				f = cfg.Max / c
			} else if c*f < cfg.Min {
				f = cfg.Min / c
			}
			cum[e] = c * f
			tr.Events = append(tr.Events, Event{Time: t, Kind: Drift, Edge: e, Factor: f})
		}
	}
	sortEvents(tr.Events)
	return tr, nil
}

// OutageConfig parametrizes correlated AS-level outages on a two-level
// topology: a whole AS (every link with an endpoint inside it, inter-AS
// border links included) fails and recovers together.
type OutageConfig struct {
	// Rate is the Poisson intensity of AS outages (outages per time unit,
	// across the whole network); MeanRepair the exponential mean outage
	// duration; Horizon the trace length.
	Rate       float64
	MeanRepair float64
	Horizon    float64
}

// GenerateASOutages materializes a correlated outage trace on net, which must
// carry an AS partition (topology.TwoLevel's Network.ASOf). Overlapping
// outages of one AS are legal: State counts down events per link, so a link
// recovers only when every outage covering it has recovered.
func GenerateASOutages(net *topology.Network, cfg OutageConfig, r *rng.RNG) (*Trace, error) {
	if cfg.Rate <= 0 || cfg.MeanRepair <= 0 || cfg.Horizon <= 0 {
		return nil, fmt.Errorf("underlay: outage rate, repair time, and horizon must be positive")
	}
	if len(net.ASOf) != net.Graph.NumNodes() {
		return nil, fmt.Errorf("underlay: AS outages need an AS-labeled network (topology.TwoLevel)")
	}
	ases := 0
	for _, a := range net.ASOf {
		if a+1 > ases {
			ases = a + 1
		}
	}
	// asEdges[a] lists the links with at least one endpoint in AS a.
	asEdges := make([][]graph.EdgeID, ases)
	for e, edge := range net.Graph.Edges {
		au, av := net.ASOf[edge.U], net.ASOf[edge.V]
		asEdges[au] = append(asEdges[au], e)
		if av != au {
			asEdges[av] = append(asEdges[av], e)
		}
	}
	tr := &Trace{}
	t := 0.0
	for {
		t += r.ExpFloat64() / cfg.Rate
		if t >= cfg.Horizon {
			break
		}
		a := r.Intn(ases)
		d := r.ExpFloat64() * cfg.MeanRepair
		for _, e := range asEdges[a] {
			tr.Events = append(tr.Events, Event{Time: t, Kind: LinkDown, Edge: e})
			if t+d < cfg.Horizon {
				tr.Events = append(tr.Events, Event{Time: t + d, Kind: LinkUp, Edge: e})
			}
		}
	}
	sortEvents(tr.Events)
	return tr, nil
}

// DefaultDownFactor is the capacity multiplier of a failed link. A failed
// link keeps a vanishing capacity instead of zero so the Garg–Könemann
// initial lengths delta/c_e stay finite; the solvers then price it out of
// every tree on their own.
const DefaultDownFactor = 1e-6

// State applies a fault trace to a graph: it remembers base capacities,
// tracks per-link down counts and cumulative drift, and rewrites
// graph.Edge.Capacity in place. Capacity is the ground truth; the returned
// length factor (old/new capacity) is what a caller mirrors into a live
// LengthStore via Bump so repair-capable consumers observe the mutation.
type State struct {
	g     *graph.Graph
	base  []float64
	down  []int
	drift []float64
	// DownFactor is the capacity multiplier while a link is down
	// (DefaultDownFactor unless overridden before the first Apply).
	DownFactor float64

	// Applied counts capacity-changing events; Downs/Ups/Drifts split the
	// applied events by kind. A no-op event (LinkUp on an up link, a second
	// overlapping LinkDown) counts in none of them.
	Applied            int
	Downs, Ups, Drifts int
}

// NewState captures g's current capacities as the base state.
func NewState(g *graph.Graph) *State {
	s := &State{
		g:          g,
		base:       make([]float64, g.NumEdges()),
		down:       make([]int, g.NumEdges()),
		drift:      make([]float64, g.NumEdges()),
		DownFactor: DefaultDownFactor,
	}
	for e := range s.base {
		s.base[e] = g.Edges[e].Capacity
		s.drift[e] = 1
	}
	return s
}

// capacity returns the link's current target capacity under the state.
func (s *State) capacity(e graph.EdgeID) float64 {
	c := s.base[e] * s.drift[e]
	if s.down[e] > 0 {
		c *= s.DownFactor
	}
	return c
}

// Down reports whether the link is currently failed.
func (s *State) Down(e graph.EdgeID) bool { return s.down[e] > 0 }

// Apply executes one event: it updates the down/drift state, rewrites the
// link's capacity, and returns the length factor old/new (the Bump factor
// mirroring the change onto a ledger: d_e ∝ 1/c_e). changed=false means the
// event was a no-op (capacity unchanged — e.g. a LinkUp on an up link) and
// the factor is 1.
func (s *State) Apply(ev Event) (lengthFactor float64, changed bool) {
	e := ev.Edge
	old := s.g.Edges[e].Capacity
	switch ev.Kind {
	case LinkDown:
		s.down[e]++
	case LinkUp:
		if s.down[e] > 0 {
			s.down[e]--
		}
	case Drift:
		if ev.Factor > 0 {
			s.drift[e] *= ev.Factor
		}
	}
	c := s.capacity(e)
	if c == old {
		return 1, false
	}
	s.g.Edges[e].Capacity = c
	s.Applied++
	switch ev.Kind {
	case LinkDown:
		s.Downs++
	case LinkUp:
		s.Ups++
	case Drift:
		s.Drifts++
	}
	return old / c, true
}

// Restore resets every link to its base capacity and clears down/drift
// state.
func (s *State) Restore() {
	for e := range s.base {
		s.g.Edges[e].Capacity = s.base[e]
		s.down[e] = 0
		s.drift[e] = 1
	}
}
