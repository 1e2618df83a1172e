// Package parallel provides the goroutine-level runtime the rule
// system uses to exploit multicore machines: a chunked parallel for,
// a parallel fold (map-reduce over index ranges), and a bounded worker
// pool for coarse-grained jobs such as independent evolutionary
// executions. All primitives are deterministic given deterministic
// work functions — parallelism never changes results, only wall time.
package parallel

import (
	"context"
	"runtime"
	"sync"
)

// Workers returns the effective worker count: n if positive, otherwise
// GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0,n) using at most workers
// goroutines (0 → GOMAXPROCS). Iterations are distributed in
// contiguous chunks, which keeps per-chunk state cache-friendly for
// the dense scans the rule matcher performs.
func For(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(start, end)
	}
	wg.Wait()
}

// ForCtx is For with cooperative cancellation: each worker checks the
// context between iterations and stops claiming work once it is
// cancelled. ForCtx always waits for every worker to return — no
// goroutine outlives the call, cancelled or not — and returns
// ctx.Err(). On cancellation some iterations have simply not run;
// callers must treat their outputs as incomplete and discard them
// (results computed by iterations that DID run are complete and
// deterministic as usual).
func ForCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	ForDone(ctx.Done(), n, workers, fn)
	return ctx.Err()
}

// ForDone is ForCtx over a bare done channel, for a caller that holds
// a stop signal rather than a context; a nil done never closes. It
// reports whether done was closed by the time every worker returned,
// in which case the outputs are incomplete.
func ForDone(done <-chan struct{}, n, workers int, fn func(i int)) bool {
	if n <= 0 {
		return Closed(done)
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n && !Closed(done); i++ {
			fn(i)
		}
		return Closed(done)
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi && !Closed(done); i++ {
				fn(i)
			}
		}(start, end)
	}
	wg.Wait()
	return Closed(done)
}

// Closed reports whether done is closed; a nil done never is.
func Closed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Fold computes a parallel reduction over [0,n). Each worker folds its
// contiguous chunk with fold starting from zero(), and the per-chunk
// results are combined left-to-right with merge in chunk order, so the
// result is deterministic whenever merge is associative over the
// chunk decomposition (true for sums, counts, maxima, and slice
// appends — everything this repository folds).
func Fold[T any](n, workers int, zero func() T, fold func(acc T, i int) T, merge func(a, b T) T) T {
	if n <= 0 {
		return zero()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		acc := zero()
		for i := 0; i < n; i++ {
			acc = fold(acc, i)
		}
		return acc
	}
	chunk := (n + w - 1) / w
	nChunks := (n + chunk - 1) / chunk
	partials := make([]T, nChunks)
	var wg sync.WaitGroup
	for c := 0; c < nChunks; c++ {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			acc := zero()
			for i := lo; i < hi; i++ {
				acc = fold(acc, i)
			}
			partials[c] = acc
		}(c, lo, hi)
	}
	wg.Wait()
	out := partials[0]
	for _, p := range partials[1:] {
		out = merge(out, p)
	}
	return out
}

// Map applies fn to every index and collects the results in order.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	For(n, workers, func(i int) { out[i] = fn(i) })
	return out
}

// Pool is a bounded worker pool for coarse jobs (e.g. independent
// evolutionary executions). Jobs are executed by exactly `workers`
// long-lived goroutines; Submit blocks when the queue is full, and
// Wait drains everything.
type Pool struct {
	jobs chan func()
	wg   sync.WaitGroup
	once sync.Once
}

// NewPool starts a pool with the given number of workers (0 →
// GOMAXPROCS) and queue capacity equal to the worker count.
func NewPool(workers int) *Pool {
	w := Workers(workers)
	p := &Pool{jobs: make(chan func(), w)}
	for i := 0; i < w; i++ {
		go func() {
			for job := range p.jobs {
				job()
				p.wg.Done()
			}
		}()
	}
	return p
}

// Submit enqueues a job. It must not be called after Close.
func (p *Pool) Submit(job func()) {
	p.wg.Add(1)
	p.jobs <- job
}

// Wait blocks until all submitted jobs have completed.
func (p *Pool) Wait() { p.wg.Wait() }

// Close waits for outstanding jobs and shuts the workers down. The
// pool cannot be reused afterwards. Close is idempotent.
func (p *Pool) Close() {
	p.once.Do(func() {
		p.wg.Wait()
		close(p.jobs)
	})
}
