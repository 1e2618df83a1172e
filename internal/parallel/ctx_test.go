package parallel

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCtxCompletesLikeFor(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var sum atomic.Int64
		if err := ForCtx(context.Background(), 100, workers, func(i int) {
			sum.Add(int64(i))
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sum.Load() != 4950 {
			t.Fatalf("workers=%d: sum %d", workers, sum.Load())
		}
	}
}

func TestForCtxPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ForCtx(ctx, 1000, workers, func(int) { ran.Add(1) })
		if err != context.Canceled {
			t.Fatalf("workers=%d: err %v", workers, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: %d iterations ran under a cancelled context", workers, ran.Load())
		}
	}
}

func TestForCtxStopsEarlyAndDrainsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForCtx(ctx, 100000, 4, func(i int) {
		if ran.Add(1) == 10 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err %v", err)
	}
	if n := ran.Load(); n >= 100000 {
		t.Fatalf("cancellation did not stop the loop: %d iterations", n)
	}
	// ForCtx waits for its workers, so the goroutine count must settle
	// back to the baseline (allow the runtime a moment to reap).
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestForDone: a nil done never stops the loop, a closed one runs
// nothing, and the result reports which happened.
func TestForDone(t *testing.T) {
	closed := make(chan struct{})
	close(closed)
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		if ForDone(nil, 100, workers, func(int) { ran.Add(1) }) || ran.Load() != 100 {
			t.Fatalf("workers=%d, nil done: %d iterations ran", workers, ran.Load())
		}
		ran.Store(0)
		if !ForDone(closed, 100, workers, func(int) { ran.Add(1) }) || ran.Load() != 0 {
			t.Fatalf("workers=%d, closed done: %d iterations ran", workers, ran.Load())
		}
	}
}
