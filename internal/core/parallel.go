package core

import "sync"

// ParallelFor runs fn(i) for i in [0,n) across at most workers goroutines
// and blocks until all complete. fn must be safe to run concurrently for
// distinct i and must write only to i-indexed slots, so results are
// independent of scheduling. workers <= 1 degrades to an inline loop.
// The MCF beta prestep fans its per-session MaxFlows out with it, and the
// experiment harnesses their independent trials and instances.
func ParallelFor(workers, n int, fn func(i int)) {
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
