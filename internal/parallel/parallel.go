// Package parallel provides the bounded fan-out helpers the experiment
// drivers use to simulate many attacker/victim pairs and many prefixes
// concurrently, with deterministic, index-addressed result merging,
// cooperative cancellation, and per-worker reusable state.
package parallel

import (
	"context"
	"runtime"
	"sync"
)

// ForEachErr runs fn(i) for every i in [0, n) using at most workers
// goroutines (workers <= 0 selects GOMAXPROCS). It blocks until all calls
// complete; no goroutine outlives the call. Results must be written to
// index-addressed storage by the callers (out[i] = ...), which keeps the
// merge deterministic regardless of scheduling.
//
// Cancellation is cooperative: once ctx is cancelled no new index is
// dispatched, in-flight calls drain to completion, and ctx.Err() is
// returned. Indices are dispatched strictly in order, so on early exit the
// set of processed indices is exactly [0, k) for some k — callers that
// collect into index-addressed storage can treat a non-nil error as "a
// prefix of the work is done, the tail is untouched zero values".
//
// A failing call does the same: the first failure (the one at the lowest
// index, so the returned error is deterministic under any scheduling)
// stops dispatch of further indices, in-flight calls drain to completion,
// and that error is returned, with the failing index inside the prefix.
// When a failure and a cancellation both happen, the worker error wins —
// it is the more specific report.
func ForEachErr(ctx context.Context, n, workers int, fn func(i int) error) error {
	return ForEachScratchErr(ctx, n, workers,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) error { return fn(i) })
}

// ForEachScratchErr is ForEachErr with per-worker reusable state: every
// worker goroutine calls newState once and passes its state to each fn
// call it executes, so a sweep worker reuses one routing.Scratch (or any
// other scratch object) across its whole share of the work. fn never sees
// a state concurrently with another call using the same state. It is the
// single underlying engine: every other helper in this package delegates
// here.
func ForEachScratchErr[S any](ctx context.Context, n, workers int, newState func() S, fn func(st S, i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		st := newState()
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if err := fn(st, i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	var (
		wg       sync.WaitGroup
		next     = make(chan int)
		done     = ctx.Done()
		failed   = make(chan struct{})
		mu       sync.Mutex
		firstErr error
		firstIdx int
	)
	// record keeps the lowest-index error and stops the feeder. Later
	// failures from in-flight drains can only lower the index, never race
	// the close.
	record := func(i int, err error) {
		mu.Lock()
		if firstErr == nil {
			close(failed)
		}
		if firstErr == nil || i < firstIdx {
			firstErr, firstIdx = err, i
		}
		mu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			st := newState()
			for i := range next {
				if err := fn(st, i); err != nil {
					record(i, err)
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-done:
			break feed
		case <-failed:
			break feed
		}
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// MapScratchErr runs error-returning fn over [0, n) as ForEachScratchErr
// does, collecting results in index order. The returned slice always has n
// entries; when err is non-nil only a prefix was computed and the rest hold
// zero values (a failing index keeps its zero value too).
func MapScratchErr[S, T any](ctx context.Context, n, workers int, newState func() S, fn func(st S, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachScratchErr(ctx, n, workers, newState, func(st S, i int) error {
		v, err := fn(st, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
