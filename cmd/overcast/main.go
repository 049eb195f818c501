// Command overcast runs the library's solvers on a generated topology with
// randomly placed sessions and prints an allocation report.
//
// Usage:
//
//	overcast [-nodes N] [-capacity C] [-seed S] [-sessions "7,5"]
//	         [-demand D] [-alg maxflow|mcf|online|single|splitstream]
//	         [-ratio R] [-routing ip|arbitrary] [-mu MU] [-simulate]
//
// Example:
//
//	overcast -nodes 100 -sessions 7,5 -alg mcf -ratio 0.95 -simulate
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"overcast"
	"overcast/internal/rng"
)

func main() {
	nodes := flag.Int("nodes", 100, "topology size (BRITE-style Waxman)")
	capacity := flag.Float64("capacity", 100, "uniform link capacity")
	seed := flag.Uint64("seed", 1, "random seed (topology and session placement)")
	sessionSpec := flag.String("sessions", "7,5", "comma-separated session sizes")
	demand := flag.Float64("demand", 100, "per-session demand")
	alg := flag.String("alg", "maxflow", "maxflow | mcf | online | single | splitstream")
	ratio := flag.Float64("ratio", 0.95, "approximation ratio for maxflow/mcf")
	routingFlag := flag.String("routing", "ip", "ip | arbitrary")
	mu := flag.Float64("mu", 30, "online algorithm step size")
	simulate := flag.Bool("simulate", false, "replay the allocation on the fluid simulator")
	flag.Parse()

	if err := run(*nodes, *capacity, *seed, *sessionSpec, *demand, *alg, *ratio, *routingFlag, *mu, *simulate); err != nil {
		fmt.Fprintln(os.Stderr, "overcast:", err)
		os.Exit(1)
	}
}

func run(nodes int, capacity float64, seed uint64, sessionSpec string, demand float64,
	alg string, ratio float64, routingFlag string, mu float64, simulate bool) error {

	sizes, err := parseSizes(sessionSpec)
	if err != nil {
		return err
	}
	net, err := overcast.WaxmanNetwork(nodes, capacity, seed)
	if err != nil {
		return err
	}
	fmt.Printf("network: %s, %d nodes, %d links, total capacity %.0f\n",
		net.Name(), net.Nodes(), net.Links(), net.TotalCapacity())

	sessions, err := placeSessions(net, sizes, demand, seed)
	if err != nil {
		return err
	}
	for i, s := range sessions {
		fmt.Printf("session %d: source %d, %d receivers, demand %.0f\n",
			i, s.Members[0], len(s.Members)-1, s.Demand)
	}

	routing := overcast.RoutingIP
	if routingFlag == "arbitrary" {
		routing = overcast.RoutingArbitrary
	}

	var alloc *overcast.Allocation
	switch alg {
	case "online":
		// NewAllocator reads Mu 0 as its default; here it is a user error.
		if mu <= 0 {
			return fmt.Errorf("online step size mu=%v must be positive", mu)
		}
		on, err := overcast.NewAllocator(net, overcast.AllocatorOptions{Mu: mu, Routing: routing})
		if err != nil {
			return err
		}
		defer on.Close()
		for i, s := range sessions {
			if _, err := on.Join(s); err != nil {
				return err
			}
			fmt.Printf("joined session %d, current max congestion %.3f\n", i, on.MaxCongestion())
		}
		alloc, err = on.OnlineAllocation()
		if err != nil {
			return err
		}
	default:
		sys, err := overcast.NewSystem(net, sessions, routing)
		if err != nil {
			return err
		}
		switch alg {
		case "maxflow":
			alloc, err = sys.MaxFlow(ratio)
		case "mcf":
			var fair *overcast.FairAllocation
			fair, err = sys.MaxConcurrentFlow(ratio, true)
			if err == nil {
				fmt.Printf("fair share lambda = %.4f\n", fair.Lambda)
				alloc = fair.Allocation
			}
		case "single":
			alloc, err = sys.SingleTreeBaseline()
		case "splitstream":
			alloc, err = sys.SplitStreamBaseline()
		default:
			return fmt.Errorf("unknown algorithm %q", alg)
		}
		if err != nil {
			return err
		}
	}

	if err := alloc.Verify(); err != nil {
		return fmt.Errorf("allocation failed verification: %w", err)
	}
	fmt.Printf("\nallocation (%s, %s routing):\n", alg, routingFlag)
	for i := range sessions {
		fmt.Printf("  session %d: rate %.2f over %d trees\n", i, alloc.SessionRate(i), alloc.TreeCount(i))
	}
	fmt.Printf("  overall throughput: %.2f\n", alloc.OverallThroughput())
	fmt.Printf("  max link congestion: %.3f\n", alloc.MaxCongestion())
	fmt.Printf("  spanning-tree ops: %d\n", alloc.SpanningTreeOps())

	if simulate {
		rep, err := alloc.Simulate(100, 0.1)
		if err != nil {
			return err
		}
		fmt.Println("\nfluid simulation (100 steps x 0.1s):")
		for i := range sessions {
			fmt.Printf("  session %d: offered %.2f, delivered %.2f\n",
				i, rep.OfferedRate[i], rep.DeliveredRate[i])
		}
		fmt.Printf("  peak link utilization: %.3f\n", rep.PeakLinkUtilization)
	}
	return nil
}

func parseSizes(spec string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 2 {
			return nil, fmt.Errorf("bad session size %q (need integers >= 2)", part)
		}
		sizes = append(sizes, v)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("no sessions specified")
	}
	return sizes, nil
}

func placeSessions(net *overcast.Network, sizes []int, demand float64, seed uint64) ([]overcast.Session, error) {
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total > net.Nodes() {
		return nil, fmt.Errorf("%d session members exceed %d nodes", total, net.Nodes())
	}
	perm := rng.New(seed ^ 0x5e55).Perm(net.Nodes())
	var sessions []overcast.Session
	off := 0
	for _, sz := range sizes {
		sessions = append(sessions, overcast.Session{Members: perm[off : off+sz], Demand: demand})
		off += sz
	}
	return sessions, nil
}
