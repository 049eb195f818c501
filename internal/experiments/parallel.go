package experiments

import (
	"runtime"

	"overcast/internal/core"
)

// parallelFor fans fn over [0,n) with a GOMAXPROCS-bounded worker pool.
func parallelFor(n int, fn func(i int)) {
	core.ParallelFor(runtime.GOMAXPROCS(0), n, fn)
}

// innerSolver returns o for solves nested inside a parallelFor fan-out:
// Workers <= 0 becomes 1, so the outer fan-out alone fills the CPUs.
func innerSolver(o core.SolverOptions) core.SolverOptions {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}
