// Package underlay models underlay faults — link failure, recovery and
// capacity drift — generates seeded per-link failure/recovery traces, and
// applies fault events to a graph. Every scenario elsewhere in the library
// mutates sessions; this package mutates the *network* — the paper's setting
// is an overlay competing for underlay capacity, and real underlays fail,
// recover, and drift.
//
// The bridge to the solvers is the length ledger: Garg–Könemann lengths are
// dual prices d_e ∝ 1/c_e, so a capacity change by factor f mirrors onto a
// live graph.LengthStore as Bump(e, 1/f). A link failure (capacity collapses)
// is a monotone length growth — exactly the mutation shape the plane's
// dirty-source repair already tolerates — while a recovery or an upward drift
// *shrinks* a length, which is precisely what LengthStore.MonotoneSince was
// built to detect: repair-capable consumers must degrade to full refills.
// (The warm engine falls back cold on any capacity change and mirrors
// nothing.) State computes those factors; the consumers' hardening lives
// with the consumers.
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
)

// EventKind discriminates underlay fault events.
type EventKind int

const (
	// LinkDown fails a link: its capacity collapses to base·DownFactor.
	LinkDown EventKind = iota
	// LinkUp recovers a failed link to its (drift-adjusted) capacity.
	LinkUp
	// Drift multiplies a link's capacity by Event.Factor (slow
	// congestion/provisioning drift).
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
