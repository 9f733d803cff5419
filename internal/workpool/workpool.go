// Package workpool is the one index-ordered worker pool every DTS job
// list runs on: the campaign engine, a fleet worker's chunk, the fleet's
// in-process drain, the conformance sweep, the scenario matrix, the
// experiment fan-outs and the replay source load. Callers write each
// result at its index, so the output is identical at any pool width; the
// pool guarantees that every index runs at most once and that a failure
// resolves to the error a sequential loop would have hit first.
package workpool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Run calls fn(i) for every i in [0, n) on width goroutines (width <= 0
// means GOMAXPROCS; never more than n). Indices are claimed in ascending
// order from a shared cursor. worker is called once per goroutine, before
// it claims anything, and returns that goroutine's fn — so each goroutine
// can own unshared state such as a cloned runner.
//
// After the first error, or once ctx is done, no new index is claimed;
// calls already in flight finish. Run returns the error of the lowest
// index that failed — the error a sequential loop would have returned —
// or, when no call failed, ctx.Err().
func Run(ctx context.Context, n, width int, worker func() func(i int) error) error {
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	width = min(width, n)

	var (
		cursor   atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstErr error
		firstIdx = n
		wg       sync.WaitGroup
	)
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn := worker()
			for !stop.Load() && ctx.Err() == nil {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
