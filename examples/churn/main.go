// Churn: overlay sessions are not static — they join, live for a while, and
// leave ("topological variability" in the paper). This example drives the v2
// Allocator with a Poisson-arrival / exponential-lifetime workload: every
// arrival is admitted immediately with a cheap online tree, every departure
// is rolled back exactly by its opaque session handle, and the periodically
// refreshed ε-feasible fair allocation is re-solved *incrementally* — a
// warm refresh repairs only the churned demand share instead of re-running
// the FPTAS for the whole population.
//
// Run with: go run ./examples/churn
package main

import (
	"fmt"
	"log"

	"overcast"
	"overcast/internal/churn"
	"overcast/internal/rng"
)

func main() {
	net, err := overcast.WaxmanNetwork(100, 100, 5)
	if err != nil {
		log.Fatal(err)
	}

	workload, err := churn.Generate(churn.Config{
		Nodes:        net.Nodes(),
		ArrivalRate:  1.5, // sessions per time unit
		MeanLifetime: 4,
		Horizon:      30,
		SizeMin:      3,
		SizeMax:      8,
		Demand:       1,
	}, rng.New(11))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %d sessions over %d events, peak concurrency %d\n",
		len(workload.Sessions), len(workload.Events), workload.PeakConcurrency())

	alloc, err := overcast.NewAllocator(net, overcast.AllocatorOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer alloc.Close()

	// Replay the trace. Workload session index -> opaque session handle;
	// handles stay valid no matter how many earlier arrivals depart (an
	// arrival index would shift meaning here).
	ids := make(map[int]overcast.SessionID, len(workload.Sessions))
	peakCongestion := 0.0
	for i, ev := range workload.Events {
		spec := workload.Sessions[ev.Session]
		switch ev.Kind {
		case churn.Join:
			p, err := alloc.Join(overcast.Session{Members: spec.Members, Demand: spec.Demand})
			if err != nil {
				log.Fatal(err)
			}
			ids[ev.Session] = p.Session
		case churn.Leave:
			// Departures clipped to the horizon are sessions still alive at
			// trace end; keep them admitted so the final rebalance describes
			// the surviving population.
			if spec.Depart >= 30 {
				continue
			}
			if err := alloc.Leave(ids[ev.Session]); err != nil {
				log.Fatal(err)
			}
		}
		if c := alloc.MaxCongestion(); c > peakCongestion {
			peakCongestion = c
		}
		// Every few events, refresh the fair allocation. The refresh is
		// warm-started: catch-up for new arrivals, exact rollback for
		// departures, repair phases proportional to the churned demand.
		if (i+1)%8 == 0 && alloc.Active() > 0 {
			snap, err := alloc.Snapshot()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  event %3d: %2d active, fair throughput %8.2f\n",
				i+1, alloc.Active(), snap.OverallThroughput())
		}
	}
	fmt.Printf("replayed trace: peak link congestion at full demands %.3f\n", peakCongestion)
	fmt.Printf("sessions still active at the horizon: %d\n", alloc.Active())

	// Rebalance hands every surviving session its refreshed multi-tree set,
	// stamped with the allocator epoch it was computed at.
	placements, err := alloc.Rebalance()
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range placements[:min(3, len(placements))] {
		fmt.Printf("  %v: fair rate %.3f across %d trees (epoch %d)\n",
			p.Session, p.Rate, len(p.Trees), p.Epoch)
	}
	st := alloc.Stats()
	fmt.Printf("refreshes: %d warm, %d cold (%d repair session-phases)\n",
		st.WarmRefreshes, st.ColdSolves, st.RepairPhases)

	// A second run that never processes departures shows what exact
	// rollback buys: congestion keeps piling up.
	noLeave, err := overcast.NewAllocator(net, overcast.AllocatorOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer noLeave.Close()
	for _, ev := range workload.Events {
		if ev.Kind != churn.Join {
			continue
		}
		spec := workload.Sessions[ev.Session]
		if _, err := noLeave.Join(overcast.Session{Members: spec.Members, Demand: spec.Demand}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("without departures the same trace ends at congestion %.3f (%.1fx the churn run's peak)\n",
		noLeave.MaxCongestion(), noLeave.MaxCongestion()/peakCongestion)
}
