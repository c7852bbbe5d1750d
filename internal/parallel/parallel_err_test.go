package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// mapErr is MapScratchErr without worker state — the shape the prefix,
// cancellation and first-error suites below exercise.
func mapErr[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return MapScratchErr(ctx, n, workers, func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (T, error) { return fn(i) })
}

// TestMapErrCompletes: with no errors and a live context, every index runs
// exactly once across the worker-count edge cases and all results land in
// index order.
func TestMapErrCompletes(t *testing.T) {
	const n = 200
	for _, workers := range []int{0, 1, 3, n, n * 2} {
		counts := make([]int32, n)
		out, err := mapErr(context.Background(), n, workers, func(i int) (int, error) {
			atomic.AddInt32(&counts[i], 1)
			return i + 1, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
			if out[i] != i+1 {
				t.Fatalf("workers=%d: out[%d]=%d, want %d", workers, i, out[i], i+1)
			}
		}
	}
}

// TestMapErrWorkerErrorLeavesPrefix: a failing worker stops further
// dispatch, in-flight indices drain, the processed set is exactly a prefix
// [0, k), and the lowest-index error is the one returned regardless of
// scheduling.
func TestMapErrWorkerErrorLeavesPrefix(t *testing.T) {
	const n = 500
	boom := errors.New("boom")
	for _, workers := range []int{0, 1, 4, n, n + 50} {
		processed := make([]int32, n)
		out, err := mapErr(context.Background(), n, workers, func(i int) (int, error) {
			processed[i] = 1
			if i >= 40 {
				return 0, fmt.Errorf("index %d: %w", i, boom)
			}
			return i + 1, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err=%v, want boom", workers, err)
		}
		// Lowest-index error: indices >= 40 all fail, and index 40 is
		// dispatched before any later one, so the reported error must
		// name it no matter which failing call finished first.
		if want := fmt.Sprintf("index %d: boom", 40); err.Error() != want {
			t.Fatalf("workers=%d: err=%q, want %q", workers, err, want)
		}
		k := assertPrefix(t, processed)
		if k < 41 {
			t.Fatalf("workers=%d: processed prefix [0,%d), want at least [0,41)", workers, k)
		}
		if len(out) != n {
			t.Fatalf("workers=%d: len(out)=%d, want %d", workers, len(out), n)
		}
		for i := 0; i < 40; i++ {
			if processed[i] == 1 && out[i] != i+1 {
				t.Fatalf("workers=%d: out[%d]=%d, want %d", workers, i, out[i], i+1)
			}
		}
		// The failing index's slot keeps the zero value.
		if out[40] != 0 {
			t.Fatalf("workers=%d: out[40]=%d, want zero value", workers, out[40])
		}
	}
}

// TestMapErrCancelLeavesPrefix mirrors the ForEachErr cancel suite: an
// external cancel returns ctx.Err() and preserves the prefix contract.
func TestMapErrCancelLeavesPrefix(t *testing.T) {
	const n = 500
	for _, workers := range []int{0, 1, 4, n, n + 50} {
		ctx, cancel := context.WithCancel(context.Background())
		processed := make([]int32, n)
		var calls atomic.Int32
		_, err := mapErr(ctx, n, workers, func(i int) (int, error) {
			processed[i] = 1
			if calls.Add(1) == 40 {
				cancel()
			}
			return i + 1, nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err=%v, want context.Canceled", workers, err)
		}
		k := assertPrefix(t, processed)
		if k < 40 {
			t.Fatalf("workers=%d: processed prefix [0,%d), want at least the 40 calls that ran", workers, k)
		}
	}
}

// TestMapErrWorkerErrorBeatsCancel: when a worker fails and the context is
// cancelled around the same time, the worker error wins — cancellation
// must not mask the root cause.
func TestMapErrWorkerErrorBeatsCancel(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := mapErr(ctx, 100, 4, func(i int) (int, error) {
		if i == 10 {
			cancel()
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want the worker error to beat context.Canceled", err)
	}
}

// TestForEachErrSerialFirstError: the workers==1 fast path stops at the
// first error with an exact cut.
func TestForEachErrSerialFirstError(t *testing.T) {
	boom := errors.New("boom")
	var ran int
	err := ForEachErr(context.Background(), 100, 1, func(i int) error {
		ran++
		if i == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want boom", err)
	}
	if ran != 8 {
		t.Fatalf("ran %d calls, want exactly 8 (indices 0..7)", ran)
	}
}

// TestMapScratchErrStateOwnership: the error path keeps the per-worker
// state contract — no state is used by two calls concurrently, even while
// an error is aborting the sweep.
func TestMapScratchErrStateOwnership(t *testing.T) {
	const n = 400
	boom := errors.New("boom")
	for _, workers := range []int{0, 1, 5, n + 7} {
		out, err := MapScratchErr(context.Background(), n, workers,
			func() *scratchProbe { return &scratchProbe{} },
			func(p *scratchProbe, i int) (int, error) {
				if !p.busy.CompareAndSwap(0, 1) {
					t.Errorf("workers=%d: state used concurrently at index %d", workers, i)
				}
				defer p.busy.Store(0)
				if i >= n/2 {
					return 0, boom
				}
				return i + 1, nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err=%v, want boom", workers, err)
		}
		if len(out) != n {
			t.Fatalf("workers=%d: len(out)=%d, want %d", workers, len(out), n)
		}
	}
}

// TestMapErrConcurrentCancelStress hammers racing error returns and
// external cancels; meant for -race. Whatever the timing, the prefix
// contract must hold and no call may run after the helper returned.
func TestMapErrConcurrentCancelStress(t *testing.T) {
	const n = 250
	boom := errors.New("boom")
	for round := 0; round < 30; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		processed := make([]int32, n)
		var returned atomic.Bool
		go func() {
			time.Sleep(time.Duration(round%7) * 10 * time.Microsecond)
			cancel()
		}()
		_, err := mapErr(ctx, n, 6, func(i int) (int, error) {
			if returned.Load() {
				t.Errorf("round %d: call for index %d after return", round, i)
			}
			processed[i] = 1
			if i%90 == 89 {
				return 0, boom
			}
			return i, nil
		})
		returned.Store(true)
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, boom) {
			t.Fatalf("round %d: err=%v", round, err)
		}
		k := assertPrefix(t, processed)
		if err == nil && k != n {
			t.Fatalf("round %d: nil error but only [0,%d) processed", round, k)
		}
		cancel()
	}
}
