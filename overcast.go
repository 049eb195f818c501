// Package overcast is a library for optimizing capacity utilization in
// application-layer overlay networks with multiple competing multicast
// sessions. It reproduces the algorithms of Cui, Li and Nahrstedt, "On
// Achieving Optimized Capacity Utilization in Application Overlay Networks
// with Multiple Competing Sessions" (SPAA 2004):
//
//   - MaxFlow — an FPTAS for the overlay maximum multicommodity flow
//     problem: split each session's traffic across many overlay trees to
//     maximize aggregate throughput.
//   - MaxConcurrentFlow — an FPTAS for the overlay maximum concurrent flow
//     problem: weighted max-min fairness across competing sessions.
//   - RoundToSingleTrees — randomized rounding of a fractional solution to
//     one tree per session with provably bounded congestion.
//   - LimitTrees — the practical "few trees" selection that exploits the
//     asymmetric rate distribution of the fractional optimum.
//   - Allocator — the online tree-construction algorithm: sessions join
//     one at a time, each gets one tree immediately, congestion stays
//     within O(log |E|) of optimal; a warm-started fair re-solve runs
//     beside it.
//
// Both fixed IP routing and arbitrary (dynamic shortest-path) routing are
// supported, as are BRITE-style topology generation, baselines (single
// tree, SplitStream-style forests, random forests), an exact LP reference
// solver for small instances, and a concurrent fluid simulator to verify
// that allocations are actually deliverable.
//
// Quick start:
//
//	net, _ := overcast.WaxmanNetwork(100, 100, 42)
//	sys, _ := overcast.NewSystem(net, []overcast.Session{
//	    {Members: []int{3, 17, 29, 41}, Demand: 100},
//	    {Members: []int{5, 55, 95}, Demand: 100},
//	}, overcast.RoutingIP)
//	alloc, _ := sys.MaxFlow(0.95)
//	fmt.Println(alloc.OverallThroughput())
package overcast

import (
	"fmt"

	"overcast/internal/core"
	"overcast/internal/graph"
	"overcast/internal/overlay"
	"overcast/internal/topology"
)

// Routing selects how overlay edges are realized as unicast routes.
type Routing int

const (
	// RoutingIP pins every node pair to its fixed shortest-path IP route.
	RoutingIP Routing = iota
	// RoutingArbitrary lets the algorithms re-route pairs over dynamic
	// shortest paths under their internal length functions (Sec. V of the
	// paper).
	RoutingArbitrary
)

// Link is one undirected physical link of a custom topology.
type Link struct {
	From, To int
	Capacity float64
}

// Network is a physical network topology with link capacities.
type Network struct {
	inner *topology.Network
}

// WaxmanNetwork generates a BRITE-style incremental Waxman topology with n
// nodes and uniform link capacity, deterministically from seed. This is the
// router-level model of the paper's Sec. III experiments (n=100,
// capacity=100).
func WaxmanNetwork(n int, capacity float64, seed uint64) (*Network, error) {
	cfg := topology.DefaultWaxman(n)
	if capacity > 0 {
		cfg.Capacity = capacity
	}
	net, err := topology.Waxman(cfg, rngFor(seed))
	if err != nil {
		return nil, err
	}
	return &Network{inner: net}, nil
}

// TwoLevelNetwork generates the paper's Sec. VI evaluation topology: an
// AS-level Waxman graph whose nodes expand into router-level Waxman graphs
// (the paper uses 10 ASes of 100 routers, capacity 100).
func TwoLevelNetwork(ases, routersPerAS int, capacity float64, seed uint64) (*Network, error) {
	cfg := topology.DefaultTwoLevel(ases, routersPerAS)
	if capacity > 0 {
		cfg.Capacity = capacity
	}
	net, err := topology.TwoLevel(cfg, rngFor(seed))
	if err != nil {
		return nil, err
	}
	return &Network{inner: net}, nil
}

// CustomNetwork builds a network from an explicit link list. Node ids must
// be in [0, nodes).
func CustomNetwork(nodes int, links []Link) (*Network, error) {
	b := graph.NewBuilder(nodes)
	for _, l := range links {
		if err := b.AddEdge(l.From, l.To, l.Capacity); err != nil {
			return nil, err
		}
	}
	g := b.Build()
	if !g.Connected() {
		return nil, fmt.Errorf("overcast: custom network is not connected")
	}
	return &Network{inner: &topology.Network{Graph: g, Name: "custom"}}, nil
}

// Nodes returns the number of nodes.
func (n *Network) Nodes() int { return n.inner.Graph.NumNodes() }

// Links returns the number of physical links.
func (n *Network) Links() int { return n.inner.Graph.NumEdges() }

// TotalCapacity returns the sum of all link capacities.
func (n *Network) TotalCapacity() float64 { return n.inner.Graph.TotalCapacity() }

// Name describes the generating model.
func (n *Network) Name() string { return n.inner.Name }

// Session declares one data dissemination session: Members[0] is the
// source, the rest are receivers; Demand is the desired rate (the absolute
// scale only matters relative to other sessions under fairness objectives).
type Session struct {
	Members []int
	Demand  float64
}

// System couples a network with a set of competing sessions under a routing
// mode; it is the entry point for all solvers.
type System struct {
	net      *Network
	problem  *core.Problem
	sessions []*overlay.Session
}

// NewSystem validates the sessions and prepares route tables and oracles.
// When the network was generated with node positions (Waxman/two-level),
// fixed IP routes follow BRITE's propagation-delay metric; custom networks
// route by hop count.
func NewSystem(net *Network, sessions []Session, routing Routing) (*System, error) {
	if net == nil {
		return nil, fmt.Errorf("overcast: nil network")
	}
	var ss []*overlay.Session
	for i, s := range sessions {
		os, err := overlay.NewSession(i, s.Members, s.Demand)
		if err != nil {
			return nil, err
		}
		ss = append(ss, os)
	}
	mode := core.RoutingIP
	if routing == RoutingArbitrary {
		mode = core.RoutingArbitrary
	}
	var weights graph.Lengths
	if len(net.inner.Pos) == net.inner.Graph.NumNodes() && len(net.inner.Pos) > 0 {
		weights = net.inner.LinkDelays()
	}
	p, err := core.NewProblemWeighted(net.inner.Graph, ss, mode, weights)
	if err != nil {
		return nil, err
	}
	return &System{net: net, problem: p, sessions: ss}, nil
}

// Network returns the system's network.
func (s *System) Network() *Network { return s.net }

// NumSessions returns the number of sessions.
func (s *System) NumSessions() int { return len(s.sessions) }
