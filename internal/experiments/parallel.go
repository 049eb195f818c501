package experiments

import (
	"runtime"
	"sync"

	"overcast/internal/core"
)

// parallelFor fans fn over [0,n) with a GOMAXPROCS-bounded worker pool.
func parallelFor(n int, fn func(i int)) {
	parallelWorkers(runtime.GOMAXPROCS(0), n, fn)
}

// innerSolver returns o for solves nested inside a parallelFor fan-out:
// Workers <= 0 becomes 1, so the outer fan-out alone fills the CPUs.
func innerSolver(o core.SolverOptions) core.SolverOptions {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// parallelWorkers fans fn over [0,n) with at most workers goroutines and
// blocks until all complete. fn must be safe to run concurrently for
// distinct i and must write only to i-indexed slots, so results never depend
// on scheduling. workers <= 1 degrades to an inline loop.
func parallelWorkers(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
