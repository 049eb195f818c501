package main

import (
	"fmt"
	"slices"
	"strings"

	"overcast"
	"overcast/internal/churn"
	"overcast/internal/graph"
	"overcast/internal/rng"
	"overcast/internal/topology"
	"overcast/internal/underlay"
	scenario "overcast/internal/workload"
)

// Session process of every workload (churn.Generate). Its stationary
// population is arrival x lifetime = 24 sessions.
const (
	churnArrival  = 2.0
	churnLifetime = 12.0
	churnSizeMin  = 3
	churnSizeMax  = 6
	churnDemand   = 1.0
)

// Every refreshing snapshot follows this many churn events (joins and
// leaves), as an orchestrator re-reading the allocation after each burst.
const refreshEvery = 4

// topologySeed is overcastd's default -seed. The network, and which of its
// nodes are popular, are the deployment: the same on every run. The
// benchmark seed draws the requests.
const topologySeed = 1

// Flap process of the flap workload (underlay.GenerateFailures). A leave
// that finds no effective fault since the last refresh pays for an exact
// rollback, ten times the cost of the others. Over 8 links that happened to
// about one leave in ten, so leave_p90_ms sat on the boundary between the
// two costs and jumped between runs; over 32 links it is under 3%.
const (
	flapEdges      = 32
	flapFailRate   = 0.8
	flapMeanRepair = 0.5
)

// workload is one frozen benchmark configuration: the overcastd flags the
// in-process daemon is deployed with and the request stream the benchmark
// generates for it.
type workload struct {
	name string
	// Deployment: overcastd -routing, -epsilon, -nodes and -budget.
	routing overcast.Routing
	epsilon float64
	nodes   int
	budget  int
	// window is the number of active sessions once the stream is past its
	// initial fill: every later join is paired with the departure of the
	// oldest active session, so the load does not swing with the Poisson
	// population.
	window int
	// flaps interleaves a link-flap trace over the first flapEdges links.
	flaps bool
	// hot draws members with the cdn scenario's Zipf node popularity
	// instead of uniformly.
	hot bool
	// prefix is how many fresh allocations the quality metrics and the work
	// counters are taken over: a fixed amount of work, so both repeat
	// exactly for a seed whatever the run length.
	prefix int
	// claims are what the traced run must show for the workload to stress
	// the layers it was chosen for; otherCPU applies to every workload.
	claims []claim
}

var workloads = []workload{
	{
		name: "churn-ip", routing: overcast.RoutingIP, epsilon: 0.15, nodes: 200, window: 24, prefix: 100,
		claims: []claim{{[]string{"overlay.plane_sources_per_alloc"}, "==", 0}},
	},
	{
		name: "churn-arb", routing: overcast.RoutingArbitrary, epsilon: 0.5, nodes: 50, window: 24, prefix: 100,
		claims: []claim{{dijkstraCPU, ">=", 0.3}},
	},
	{
		name: "flap-arb", routing: overcast.RoutingArbitrary, epsilon: 0.5, nodes: 50, window: 24, flaps: true, prefix: 100,
		claims: []claim{{[]string{"core.warm_frac"}, "<=", 0.1}, {[]string{"underlay.events"}, ">", 0}},
	},
	{
		name: "cold-cdn-arb", routing: overcast.RoutingArbitrary, epsilon: 0.5, nodes: 100, budget: -1, window: 12, hot: true, prefix: 100,
		claims: []claim{{dijkstraCPU, ">=", 0.3}, {[]string{"overlay.dedup"}, ">=", 1.5}, {[]string{"core.warm_frac"}, "==", 0}},
	},
}

// claim is a bound on the sum of one or more per-layer metrics of a traced
// run.
type claim struct {
	metrics []string
	op      string // "<=", ">=", ">" or "=="
	bound   float64
}

var otherCPU = claim{[]string{"other.cpu_share"}, "<=", 0.10}

// dijkstraCPU is the shortest-path layer pair: routing's Dijkstra loops and
// the graph package's indexed heap they run on.
var dijkstraCPU = []string{"routing.cpu_share", "graph.cpu_share"}

func (c claim) holds(v float64) bool {
	switch c.op {
	case "<=":
		return v <= c.bound
	case ">=":
		return v >= c.bound
	case ">":
		return v > c.bound
	}
	return v == c.bound
}

// checkClaims reports, one line each, whether the traced run's metrics
// meet the workload's claims.
func (w workload) checkClaims(ms []metric) []string {
	var out []string
	for _, c := range append([]claim{otherCPU}, w.claims...) {
		sum, found := 0.0, 0
		for _, m := range ms {
			if slices.Contains(c.metrics, m.name) {
				sum += m.value
				found++
			}
		}
		verdict := fmt.Sprintf("%.4g, holds", sum)
		if found != len(c.metrics) {
			verdict = "MISSING"
		} else if !c.holds(sum) {
			verdict = fmt.Sprintf("%.4g, DOES NOT HOLD", sum)
		}
		out = append(out, fmt.Sprintf("claim %s %s %g: %s", strings.Join(c.metrics, "+"), c.op, c.bound, verdict))
	}
	return out
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// opKind is one request of connection 1's stream.
type opKind int

const (
	opJoin opKind = iota
	opLeave
	opFault
	opRefresh
)

func (k opKind) String() string {
	return [...]string{"join", "leave", "fault", "refresh"}[k]
}

// op is one request; slot names the session's position in the join order
// (joins and leaves), from/to/down the flapping link (faults).
type op struct {
	kind     opKind
	slot     int
	from, to int
	down     bool
}

// stream is the generated request stream: joins[slot] is the session the
// slot-th join admits.
type stream struct {
	joins []churn.SessionSpec
	ops   []op
}

// generate builds the workload's request stream from seed: `joins`
// sessions in arrival order, each joining as the oldest of the window
// leaves, link faults delivered in time order between them.
func (w workload) generate(seed uint64, joins int) (*stream, error) {
	// Arrivals are Poisson: the horizon is sized for the expected count plus
	// a wide margin, and the trace is cut to `joins` sessions.
	tr, err := churn.Generate(churn.Config{
		Nodes: w.nodes, ArrivalRate: churnArrival, MeanLifetime: churnLifetime,
		Horizon: 1.2*float64(joins)/churnArrival + 10, SizeMin: churnSizeMin, SizeMax: churnSizeMax,
		Demand: churnDemand,
	}, rng.New(seed+1))
	if err != nil {
		return nil, err
	}
	if len(tr.Sessions) < joins {
		return nil, fmt.Errorf("churn trace has %d sessions, want %d", len(tr.Sessions), joins)
	}
	st := &stream{joins: tr.Sessions[:joins]}
	if w.hot {
		cdn, err := scenario.Get("cdn")
		if err != nil {
			return nil, err
		}
		members, r := cdn.NewMemberSampler(w.nodes, rng.New(topologySeed)), rng.New(seed+3)
		for i := range st.joins {
			st.joins[i].Members = members.Sample(r, len(st.joins[i].Members))
		}
	}

	var faults []underlay.Event
	var shadow *topology.Network
	if w.flaps {
		// The shadow network is the daemon's (same generator and seed): it
		// maps the generator's edge ids to the endpoints the fault RPC takes.
		if shadow, err = topology.Waxman(topology.DefaultWaxman(w.nodes), rng.New(topologySeed)); err != nil {
			return nil, err
		}
		edges := make([]graph.EdgeID, min(flapEdges, shadow.Graph.NumEdges()))
		for e := range edges {
			edges[e] = e
		}
		tr, err := underlay.GenerateFailures(shadow.Graph, underlay.FailureConfig{
			Edges: edges, FailRate: flapFailRate, MeanRepair: flapMeanRepair, Horizon: st.joins[joins-1].Arrive,
		}, rng.New(seed+2))
		if err != nil {
			return nil, err
		}
		faults = tr.Events
	}

	events := 0
	churnOp := func(o op) {
		st.ops = append(st.ops, o)
		if events++; events%refreshEvery == 0 {
			st.ops = append(st.ops, op{kind: opRefresh})
		}
	}
	fi := 0
	for slot, s := range st.joins {
		for ; fi < len(faults) && faults[fi].Time <= s.Arrive; fi++ {
			e := shadow.Graph.Edges[faults[fi].Edge]
			st.ops = append(st.ops, op{kind: opFault, from: e.U, to: e.V, down: faults[fi].Kind == underlay.LinkDown})
		}
		if slot >= w.window {
			churnOp(op{kind: opLeave, slot: slot - w.window})
		}
		churnOp(op{kind: opJoin, slot: slot})
	}
	return st, nil
}
