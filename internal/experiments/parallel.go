package experiments

import (
	"context"
	"runtime"
	"sync"
)

// ForEach runs fn(0) … fn(n-1) across at most workers goroutines (0
// selects runtime.NumCPU()). Callers write results into index i of a
// preallocated slice inside fn, so assembly order — and therefore every
// rendered table — is deterministic regardless of scheduling. All jobs
// run even after a failure; the error for the smallest index wins, so
// repeated runs report the same failure.
func ForEach(n, workers int, fn func(i int) error) error {
	return ForEachContext(context.Background(), n, workers, fn)
}

// ForEachContext is ForEach with cancellation: once ctx is done, no new
// job starts (jobs already running finish normally), so an abandoned
// batch stops burning CPU instead of draining to the end. Error
// selection stays index-deterministic given which jobs ran: scanning
// indices in order, a job's own error wins at the first index that
// failed, and ctx.Err() is returned at the first index that never
// started. A fully completed batch returns its ForEach answer even if
// ctx expired after the last job was fed.
func ForEachContext(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	ran := make([]bool, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			ran[i] = true
			errs[i] = fn(i)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					// Once a worker frees up after the cancel, the feeder's
					// select may still pick the send: skip such a job here.
					if ctx.Err() != nil {
						continue
					}
					ran[i] = true
					errs[i] = fn(i)
				}
			}()
		}
	feed:
		for i := 0; i < n; i++ {
			select {
			case jobs <- i:
			case <-ctx.Done():
				break feed
			}
		}
		close(jobs)
		wg.Wait()
	}
	for i := 0; i < n; i++ {
		if !ran[i] {
			// The batch was cut short; the context's error is the cause.
			if err := ctx.Err(); err != nil {
				return err
			}
			return nil
		}
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
}
