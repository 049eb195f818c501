// Livestream: the intro scenario the paper motivates — live media sessions
// join a shared overlay one after another, each needing a dissemination tree
// immediately, with no rerouting of the sessions already streaming. The
// online allocator (Table VI) admits each arrival on the spot; its length
// function steers later sessions around loaded links, keeping congestion
// within O(log links) of the clairvoyant optimum.
//
// Run with: go run ./examples/livestream
package main

import (
	"fmt"
	"log"

	"overcast"
	"overcast/internal/rng"
)

func main() {
	net, err := overcast.WaxmanNetwork(120, 100, 77)
	if err != nil {
		log.Fatal(err)
	}

	on, err := overcast.NewAllocator(net, overcast.AllocatorOptions{Mu: 30, Routing: overcast.RoutingIP})
	if err != nil {
		log.Fatal(err)
	}

	// Ten streaming channels join over time, each with a source and a
	// random audience of 3-6 receivers.
	r := rng.New(99)
	var audiences [][]int
	for ch := 0; ch < 10; ch++ {
		size := 4 + r.Intn(4)
		audiences = append(audiences, r.Sample(net.Nodes(), size))
	}

	fmt.Println("channel  members  tree-links  max-congestion-after-join")
	for ch, members := range audiences {
		p, err := on.Join(overcast.Session{Members: members, Demand: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%7d  %7d  %10d  %25.3f\n", ch, len(members), len(p.Tree.Pairs()), on.MaxCongestion())
	}

	// Every channel's streaming rate is its demand scaled by the congestion
	// its tree actually sees — an exactly feasible allocation.
	alloc, err := on.OnlineAllocation()
	if err != nil {
		log.Fatal(err)
	}
	on.Close()
	if err := alloc.Verify(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nfinal feasible streaming rates:")
	for ch := range audiences {
		fmt.Printf("  channel %d: %.2f\n", ch, alloc.SessionRate(ch))
	}
	fmt.Printf("aggregate receiver throughput: %.2f\n", alloc.OverallThroughput())

	// How far from the clairvoyant optimum that knew all arrivals upfront?
	var sessions []overcast.Session
	for _, m := range audiences {
		sessions = append(sessions, overcast.Session{Members: m, Demand: 1})
	}
	sys, err := overcast.NewSystem(net, sessions, overcast.RoutingIP)
	if err != nil {
		log.Fatal(err)
	}
	opt, err := sys.MaxFlow(0.93)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline multi-tree optimum: %.2f (online achieved %.1f%%)\n",
		opt.OverallThroughput(), 100*alloc.OverallThroughput()/opt.OverallThroughput())
}
