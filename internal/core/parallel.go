package core

import (
	"runtime"
	"sync"
)

// runJobs executes job(0..n-1) on a bounded pool of GOMAXPROCS workers and
// returns the lowest-index error, if any.
//
// A simulated run is a pure function of its batch, policy and configuration
// — workload.Batch.Generators builds fresh generators per call and the
// machine model shares no mutable globals — so independent runs of a grid
// can execute on separate OS threads. The job indexing keeps results (and
// the first reported error) in a deterministic order, making parallel
// output byte-identical to serial output.
//
// Tracing forces serial in-order execution (workers = 1): multi-run
// experiments interleave their event streams into one shared sink, and that
// interleaving is part of the observable output.
func (o Options) runJobs(n int, job func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if o.Tracer != nil || workers < 1 {
		workers = 1
	}
	errs := make([]error, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			// Serial mode stops at the first error like a plain loop, so
			// a traced experiment never starts work after a failure.
			if errs[i] = job(i); errs[i] != nil {
				return errs[i]
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
