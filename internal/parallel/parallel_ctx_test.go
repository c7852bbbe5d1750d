package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// assertPrefix checks the documented early-exit contract: the processed
// index set must be exactly [0, k) — once one index is unprocessed, every
// later index must be unprocessed too.
func assertPrefix(t *testing.T, processed []int32) int {
	t.Helper()
	k := len(processed)
	for i, p := range processed {
		if p == 0 {
			k = i
			break
		}
	}
	for i := k; i < len(processed); i++ {
		if processed[i] != 0 {
			t.Fatalf("processed set is not a prefix: index %d ran but index %d did not", i, k)
		}
	}
	return k
}

// TestForEachCtxCancelLeavesPrefix cancels from inside the sweep and
// verifies the prefix contract across several worker counts.
func TestForEachCtxCancelLeavesPrefix(t *testing.T) {
	const n = 500
	for _, workers := range []int{0, 1, 4, n, n + 50} {
		ctx, cancel := context.WithCancel(context.Background())
		processed := make([]int32, n)
		var calls atomic.Int32
		err := ForEachErr(ctx, n, workers, func(i int) error {
			processed[i] = 1
			if calls.Add(1) == 40 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err=%v, want context.Canceled", workers, err)
		}
		k := assertPrefix(t, processed)
		if k < 40 {
			t.Fatalf("workers=%d: processed prefix [0,%d), want at least the 40 calls that ran", workers, k)
		}
		if workers == 1 && k != 40 {
			// The serial fast path checks ctx before every call, so the
			// cut is exact there.
			t.Fatalf("workers=1: processed prefix [0,%d), want exactly [0,40)", k)
		}
	}
}

// TestForEachCtxCompletesWithoutCancel covers the same worker-count edge
// cases (0 => GOMAXPROCS, 1 => serial fast path, > n => clamped) when the
// context stays live: every index runs exactly once and err is nil.
func TestForEachCtxCompletesWithoutCancel(t *testing.T) {
	const n = 200
	for _, workers := range []int{0, 1, 3, n, n * 2} {
		counts := make([]int32, n)
		if err := ForEachErr(context.Background(), n, workers, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestMapCtxPartialTailIsZero pins MapScratchErr's shape on cancellation: always
// n entries, computed prefix, untouched zero-value tail.
func TestMapCtxPartialTailIsZero(t *testing.T) {
	const n = 300
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int32
	out, err := mapErr(ctx, n, 4, func(i int) (int, error) {
		if calls.Add(1) == 25 {
			cancel()
		}
		return i + 1, nil // never zero, so zero marks "not computed"
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if len(out) != n {
		t.Fatalf("len(out)=%d, want %d", len(out), n)
	}
	k := 0
	for k < n && out[k] != 0 {
		if out[k] != k+1 {
			t.Fatalf("out[%d]=%d, want %d", k, out[k], k+1)
		}
		k++
	}
	for i := k; i < n; i++ {
		if out[i] != 0 {
			t.Fatalf("tail entry %d is %d, want zero value", i, out[i])
		}
	}
	if k == 0 || k == n {
		t.Fatalf("computed prefix [0,%d), want a strict partial result", k)
	}

	// Pre-cancelled context: nothing runs, full zero-value slice.
	pre, precancel := context.WithCancel(context.Background())
	precancel()
	out, err = mapErr(pre, n, 4, func(i int) (int, error) { return i + 1, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err=%v, want context.Canceled", err)
	}
	if len(out) != n {
		t.Fatalf("pre-cancelled len(out)=%d, want %d", len(out), n)
	}
}

// scratchProbe is a per-worker state object that detects concurrent use.
type scratchProbe struct {
	busy  atomic.Int32
	calls int
}

// TestForEachScratchStateOwnership verifies the per-worker state contract:
// newState runs once per worker goroutine, every call receives a state, no
// state is ever used by two calls concurrently, and together the states
// cover all n indices exactly once.
func TestForEachScratchStateOwnership(t *testing.T) {
	const n = 400
	for _, workers := range []int{0, 1, 5, n + 7} {
		var (
			states  atomic.Int32
			mu      sync.Mutex
			created []*scratchProbe
		)
		counts := make([]int32, n)
		err := ForEachScratchErr(context.Background(), n, workers,
			func() *scratchProbe {
				states.Add(1)
				p := &scratchProbe{}
				mu.Lock()
				created = append(created, p)
				mu.Unlock()
				return p
			},
			func(p *scratchProbe, i int) error {
				if !p.busy.CompareAndSwap(0, 1) {
					t.Errorf("workers=%d: state used concurrently at index %d", workers, i)
				}
				p.calls++
				atomic.AddInt32(&counts[i], 1)
				p.busy.Store(0)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := workers
		if want <= 0 {
			want = runtime.GOMAXPROCS(0)
		}
		if want > n {
			want = n
		}
		if got := int(states.Load()); got != want {
			t.Fatalf("workers=%d: newState ran %d times, want %d", workers, got, want)
		}
		total := 0
		for _, p := range created {
			total += p.calls
		}
		if total != n {
			t.Fatalf("workers=%d: states saw %d calls, want %d", workers, total, n)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestForEachScratchConcurrentCancelStress hammers the cancel path from an
// external goroutine at varying points in the sweep; meant to run under
// -race (the tier-1 matrix does). Whatever the timing, the prefix contract
// must hold and no call may run after the helper returned.
func TestForEachScratchConcurrentCancelStress(t *testing.T) {
	const n = 250
	for round := 0; round < 30; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		processed := make([]int32, n)
		var returned atomic.Bool
		go func() {
			time.Sleep(time.Duration(round%7) * 10 * time.Microsecond)
			cancel()
		}()
		err := ForEachScratchErr(ctx, n, 6,
			func() int { return 0 },
			func(_ int, i int) error {
				if returned.Load() {
					t.Errorf("round %d: call for index %d after return", round, i)
				}
				processed[i] = 1
				return nil
			})
		returned.Store(true)
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: err=%v", round, err)
		}
		k := assertPrefix(t, processed)
		if err == nil && k != n {
			t.Fatalf("round %d: nil error but only [0,%d) processed", round, k)
		}
		cancel()
	}
}
