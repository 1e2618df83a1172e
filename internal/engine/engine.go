package engine

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/series"
)

// Options configures an Engine.
type Options struct {
	// Shards is the number of dataset partitions (0 = GOMAXPROCS,
	// clamped to the dataset size). 1 degenerates to the sequential
	// single-index layout — still exact, just without fan-out. When
	// Rebalance is set the count adapts at runtime; this is then the
	// target the policy steers toward.
	Shards int
	// Workers bounds the goroutines used to fan queries out across
	// shards and rules (0 = GOMAXPROCS).
	Workers int
	// CacheCapacity bounds each generation of the shared result cache
	// (0 = DefaultCacheCapacity).
	CacheCapacity int
	// CompactThreshold is the per-shard dead-row ratio beyond which
	// Delete/Window compact that shard automatically. 0 means
	// DefaultCompactThreshold; negative (or NaN) disables automatic
	// compaction — explicit Compact() always works; values above 1 are
	// clamped to 1 (compact only fully-dead shards).
	CompactThreshold float64
	// Rebalance enables the adaptive shard split/merge policy: after
	// every mutation, oversized hot shards are split and undersized
	// ones merged so live shard sizes stay within a 2x spread under
	// skewed streams. Purely a layout knob — results are bit-identical
	// with it on or off.
	Rebalance bool
}

// Clamped returns a copy of the options with every field normalized
// to its documented domain — the single place out-of-range values are
// handled, so constructors and flag parsing never re-derive the
// rules: negative Shards/Workers/CacheCapacity mean "use the default"
// and become 0; CompactThreshold maps 0 to DefaultCompactThreshold,
// NaN and negatives to -1 (disabled), and clamps to at most 1.
func (o Options) Clamped() Options {
	if o.Shards < 0 {
		o.Shards = 0
	}
	if o.Workers < 0 {
		o.Workers = 0
	}
	if o.CacheCapacity < 0 {
		o.CacheCapacity = 0
	}
	switch {
	case o.CompactThreshold == 0:
		o.CompactThreshold = DefaultCompactThreshold
	case math.IsNaN(o.CompactThreshold) || o.CompactThreshold < 0:
		o.CompactThreshold = -1
	case o.CompactThreshold > 1:
		o.CompactThreshold = 1
	}
	return o
}

// Engine is the sharded, batched evaluation backend plus its shared
// result cache: the training dataset partitioned across P shards, each
// carrying its own slice of patterns and its own MatchIndex. It
// implements core.Store (the lifecycle-managed superset of
// core.Backend); Configure wires both the engine and its cache into a
// core.Config in one call. One Engine serves every consumer over its
// dataset — evaluators, multi-run waves, islands, the Pittsburgh
// baseline — concurrently.
//
// The initial build partitions contiguously; streaming appends route
// new patterns to the shard with the fewest live rows (rebuilding only
// that shard's index), so after appends a shard owns an ascending but
// not necessarily contiguous set of global pattern indices. Queries
// merge per-shard results through a bitmap over global indices, which
// restores ascending order regardless of layout.
//
// Rows leave through tombstones: Delete and Window mark rows dead in
// per-shard bitmaps, every match path skips them, and compaction
// (threshold-triggered or explicit) rewrites the affected shards and
// the global dataset view so the memory is reclaimed and Data()
// shrinks back to the live rows. Rows are named across these
// renumberings by their stable series.RowID, assigned in insertion
// order; the global view always keeps live rows in insertion order,
// which is what makes engine evaluations bit-identical to a
// from-scratch build over the live rows (floating-point accumulation
// order is part of the contract).
//
// Match queries are safe for concurrent use with each other;
// mutations (Append, Delete, Window, Compact, Rebalance) exclude
// queries via the RWMutex but mutate the shared dataset in place —
// callers must not mutate concurrently with code reading the dataset
// outside the engine (streaming loops alternate evolve and mutate
// phases). Each mutation bumps the data epoch, so every cached
// evaluation from an older snapshot expires with it.
type Engine struct {
	mu      sync.RWMutex
	data    *series.Dataset // guarded by mu: the full dataset view; Append grows it, Compact shrinks it
	parts   []*shard        // guarded by mu
	workers int             // fixed at construction
	epoch   atomic.Uint64
	cache   *SharedCache // fixed at construction
	tel     *telemetry   // set by Instrument before the engine is shared; nil = disabled

	deadTotal int          // guarded by mu: tombstoned rows awaiting compaction, across all shards
	nextID    series.RowID // guarded by mu: next RowID to assign on Append

	// Lifecycle policy (fixed at construction; see Options).
	compactThreshold float64 // per-shard dead ratio that triggers auto-compaction; <0 disables
	autoRebalance    bool
	targetP          int // configured shard count rebalancing regrows toward
}

// New builds an engine over the training dataset: the dataset is
// partitioned into opt.Shards shards (0 → GOMAXPROCS, clamped to the
// dataset size so no shard is empty) with one MatchIndex each, and a
// fresh shared cache is attached. Options are clamped in one place;
// see Options.Clamped. The engine owns the dataset's lifecycle from
// here on: streaming appends, deletes, windows, compaction and
// rebalancing must go through the Engine methods.
func New(data *series.Dataset, opt Options) *Engine {
	opt = opt.Clamped()
	n := data.Len()
	p := opt.Shards
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	targetP := p // a tiny seed clamps p below; rebalancing regrows toward the configured count
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	s := &Engine{
		data:             data,
		workers:          opt.Workers,
		cache:            NewSharedCache(opt.CacheCapacity),
		compactThreshold: opt.CompactThreshold,
		autoRebalance:    opt.Rebalance,
		targetP:          targetP,
	}
	// Stable row identity: adopt the dataset's ids when it already has
	// ascending ones (a store handing data across engines), otherwise
	// number rows by position.
	if data.HasAscendingIDs() {
		s.nextID = data.IDs[n-1] + 1
	} else {
		s.nextID = data.AssignIDs(0)
	}
	s.parts = make([]*shard, p)
	// Contiguous blocks, remainder spread over the first shards: the
	// same layout a from-scratch rebuild would produce.
	base, rem := n/p, n%p
	parallel.For(p, opt.Workers, func(i int) {
		size := base
		if i < rem {
			size++
		}
		start := i*base + min(i, rem)
		sh := &shard{
			global: make([]int32, size),
			data: &series.Dataset{
				Inputs:  make([][]float64, size),
				Targets: make([]float64, size),
				D:       data.D,
				Horizon: data.Horizon,
			},
		}
		for k := 0; k < size; k++ {
			g := start + k
			sh.global[k] = int32(g)
			sh.data.Inputs[k] = data.Inputs[g]
			sh.data.Targets[k] = data.Targets[g]
		}
		sh.idx = core.NewMatchIndex(sh.data)
		s.parts[i] = sh
	})
	return s
}

// Cache returns the engine's shared result cache.
func (s *Engine) Cache() *SharedCache { return s.cache }

// Configure wires the engine into a core.Config: match queries go
// through the shards (Backend) and results are memoized in the shared
// cache (Cache). Purely a speed knob — results are bit-identical to
// the sequential path.
//
// Pending tombstones are compacted away first. Match paths skip dead
// rows on their own, but training pipelines also consume Data()
// directly — rule-initialization bounds, coverage counts — and that
// view holds tombstoned rows until compaction. Compacting here
// guarantees every consumer of a configured engine sees exactly the
// live rows, whether or not the caller remembered an explicit
// Compact(); it is a no-op when nothing is tombstoned.
func (s *Engine) Configure(cfg *core.Config) {
	s.Compact()
	cfg.Runtime.Backend = s
	cfg.Runtime.Cache = s.cache
}

// Instrument attaches a metrics registry: MatchBatch latency and batch
// sizes, per-verb mutation timings, the epoch/live-rows/skew gauges,
// and the shared cache's hit/miss/bypass counters. Call it before the
// engine is shared across goroutines (the field is written without the
// mutex, exactly like the construction-time policy fields); nil
// detaches. Purely observational — results are bit-identical
// instrumented or not.
func (s *Engine) Instrument(reg *obs.Registry) {
	s.tel = newTelemetry(reg)
	s.cache.Instrument(reg)
}

// MatchIndices returns the rule's matched live pattern indices over
// the full dataset, ascending — exactly what the sequential
// single-index path over the live rows returns. It is the batch
// kernel over a batch of one: each shard answers from its own index
// (or a shard-local scan when the index cannot beat one) into its
// pooled arena, and the hits merge through the pooled global bitmap.
// It takes no context, so it is not cancellable, and it does not feed
// the MatchBatch histograms, which count only real batches.
func (s *Engine) MatchIndices(r *core.Rule) []int {
	return s.matchBatch(nil, []*core.Rule{r})[0]
}

// MatchBatch answers one whole generation of rules in a single
// scheduling pass. Instead of per-rule dispatch it (1) computes each
// rule's most selective lag once, by summing the per-shard candidate
// ranges of every gene (the per-shard lookups reuse exactly these
// ranges, so the pass costs nothing extra); (2) groups rules by that
// lag and walks each shard index once per group — all rules of a
// group probe the same sorted value/permutation arrays back to back,
// which keeps those arrays hot in cache; (3) fans the groups out
// across shards on separate goroutines and merges per-shard hits
// through the global bitmap. out[i] corresponds to rules[i] and is
// bit-identical to MatchIndices(rules[i]) — grouping and fan-out are
// pure scheduling.
//
// The context bounds every parallel pass: once it is cancelled the
// remaining scheduling work is skipped, all fan-out goroutines drain
// before MatchBatch returns, and the result is incomplete — callers
// must check ctx.Err() and discard it (core.Evaluator does).
func (s *Engine) MatchBatch(ctx context.Context, rules []*core.Rule) [][]int {
	t := s.tel
	if t == nil {
		return s.matchBatch(ctx.Done(), rules)
	}
	if t.reg.Tracing() {
		// Child of whatever traced operation issued the batch: the
		// client-side evaluation pass in-process, the RPC handler span
		// on a shard server.
		var sp *obs.Span
		ctx, sp = t.reg.ChildSpanCtx(ctx, "engine.matchbatch")
		defer sp.End()
	}
	start := t.reg.Now()
	out := s.matchBatch(ctx.Done(), rules)
	t.batchNs.Observe(t.reg.Now() - start)
	t.batchRules.Observe(int64(len(rules)))
	return out
}

// The mutation verbs below share one shape: time the implementation,
// then let finish record the verb's latency, refresh the lifecycle
// gauges and invalidate the shared cache when the store changed. The
// implementation bumps the epoch before it releases the write lock —
// the invalidation only releases the memory of results whose
// epoch-prefixed keys have already expired. Like every mutation, none
// may run concurrently with evaluation.

// Append adds streaming patterns to the dataset and maintains the
// shard indexes incrementally: all new patterns are routed to the
// shard currently holding the fewest live rows (lowest index on ties,
// so the layout is deterministic) and only that shard's index is
// rebuilt — O(n_s log n_s) instead of the full O(n log n) rebuild.
// The global dataset view grows in place and each new row receives
// the next ascending RowID. When rebalancing is enabled, a chunk that
// leaves the routed shard oversized is split apart again before
// Append returns. Returns an error when a pattern's width does not
// match the dataset's D or inputs and targets disagree in length.
func (s *Engine) Append(inputs [][]float64, targets []float64) error {
	return s.AppendRows(inputs, targets, nil)
}

// AppendRows is Append with caller-chosen stable ids — the remote
// shard server's hook: a scatter/gather client owns the global RowID
// space, so each server must adopt the ids its slice of a chunk was
// assigned instead of numbering rows itself. ids must be strictly
// ascending and greater than every id already in the store (the
// invariant all mutations preserve); nil means number the rows
// automatically, which is exactly Append.
func (s *Engine) AppendRows(inputs [][]float64, targets []float64, ids []series.RowID) error {
	start := s.tel.now()
	if err := s.appendRows(inputs, targets, ids); err != nil {
		return err
	}
	s.finish(verbAppend, start, true)
	return nil
}

// Delete tombstones the rows with the given stable ids and returns
// how many were live before the call. Unknown or already-dead ids are
// ignored. Matched sets exclude the rows immediately; the epoch bump
// expires every cached evaluation. Shards whose dead ratio crosses
// the compaction threshold are compacted before Delete returns, and
// when rebalancing is enabled the surviving layout is rebalanced.
func (s *Engine) Delete(ids []series.RowID) int {
	start := s.tel.now()
	n := s.deleteRows(ids)
	s.finish(verbDelete, start, n > 0)
	return n
}

// Window keeps only the newest n live rows and tombstones every older
// one — the sliding-window primitive — returning the number evicted.
// "Newest" is insertion order (ascending RowID), so a stream that
// appends chunks and calls Window(w) after each one trains on exactly
// the trailing w patterns. Eviction triggers the same threshold
// compaction and rebalancing as Delete.
func (s *Engine) Window(n int) int {
	start := s.tel.now()
	evicted := s.window(n)
	s.finish(verbWindow, start, evicted > 0)
	return evicted
}

// Compact physically removes every tombstoned row: each shard holding
// dead rows is rewritten live-only and its index rebuilt, and the
// global dataset view shrinks in place (Data() keeps its pointer).
// Untouched shards keep their indexes — only their global numbering
// is remapped, an O(n) sweep that costs a fraction of one index
// rebuild. Returns the number of rows reclaimed.
func (s *Engine) Compact() int {
	start := s.tel.now()
	removed := s.compact()
	s.finish(verbCompact, start, removed > 0)
	return removed
}

// Rebalance runs the split/merge policy until live shard sizes are
// balanced (or a safety cap of steps is hit), returning the number of
// split/merge steps taken. It is invoked automatically after
// Append/Delete/Window/Compact when Options.Rebalance is set, and can
// always be called explicitly. Each step rebuilds only the indexes of
// the one or two shards it touches. Results never change, but the
// epoch still moves: one mutation, one epoch keeps staleness
// reasoning trivial.
func (s *Engine) Rebalance() int {
	start := s.tel.now()
	ops := s.rebalance()
	s.finish(verbRebalance, start, ops > 0)
	return ops
}

// finish is the common tail of the mutation verbs, run after the
// write lock is released.
func (s *Engine) finish(v verb, start int64, changed bool) {
	if t := s.tel; t != nil {
		t.verbNs[v].Observe(t.reg.Now() - start)
		if changed {
			t.afterMutation(s)
		}
	}
	if changed {
		s.cache.Invalidate()
	}
}

// Engine must satisfy the full lifecycle-store contract.
var _ core.Store = (*Engine)(nil)
