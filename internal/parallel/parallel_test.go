package parallel

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		const n = 53
		var hits [n]int32
		if err := ForEachErr(context.Background(), n, workers, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Errorf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEachZeroN(t *testing.T) {
	called := false
	for _, n := range []int{0, -3} {
		if err := ForEachErr(context.Background(), n, 4, func(int) error { called = true; return nil }); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
	if called {
		t.Error("fn called for n <= 0")
	}
}

func TestMapOrdered(t *testing.T) {
	got, err := mapErr(context.Background(), 10, 4, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Map[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestForEachParallelism(t *testing.T) {
	// With enough workers, at least two goroutines must run concurrently:
	// pair up via a rendezvous counter.
	var peak, cur int32
	_ = ForEachErr(context.Background(), 8, 8, func(int) error {
		c := atomic.AddInt32(&cur, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if c <= p || atomic.CompareAndSwapInt32(&peak, p, c) {
				break
			}
		}
		for i := 0; i < 1000; i++ { // widen the overlap window
			atomic.LoadInt32(&cur)
		}
		atomic.AddInt32(&cur, -1)
		return nil
	})
	if peak < 1 {
		t.Fatalf("peak concurrency %d", peak)
	}
}

func TestForEachLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		_ = ForEachErr(context.Background(), 50, 8, func(int) error { return nil })
	}
	// Allow the runtime a moment to reap exited goroutines.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines leaked: %d -> %d", before, after)
	}
}
