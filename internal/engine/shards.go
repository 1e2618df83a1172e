// Package engine is the sharded, batched evaluation backend of the
// rule system. It partitions the training dataset across P shards,
// each with its own core.MatchIndex, so match queries fan out across
// goroutines and merge ordered results; serves whole generations of
// offspring through one scheduling pass (MatchBatch); shares a
// generation-aware result cache across evaluators, multi-run waves,
// islands and the Pittsburgh baseline; and manages the dataset's full
// lifecycle under streaming data — incremental appends, tombstoned
// deletes and sliding windows, threshold-triggered compaction, and
// adaptive shard split/merge rebalancing — instead of rebuilding from
// scratch.
//
// The engine implements core.Store (and therefore core.Backend). It
// accelerates only the match side — all regression and fitness math
// stays in core — so every configuration (any shard count, any
// parallelism, cache on or off, any append/delete/compact/rebalance
// history) is bit-identical to the sequential single-index path over
// the same live rows.
package engine

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/series"
)

// shard is one partition: a shard-local dataset whose rows alias the
// full dataset's rows (read-only), the ascending global index of each
// local pattern, the shard's own match index, and the shard's
// tombstone bitmap. The index is always built over the shard's full
// local data (dead rows included, until compaction); match paths
// filter through the bitmap, so a tombstoned row is invisible the
// moment Delete returns.
type shard struct {
	global []int32         // global[i]: full-dataset index of local pattern i
	data   *series.Dataset // local view; Inputs/Targets own their headers
	idx    *core.MatchIndex
	dead   []uint64     // tombstone bitmap over local indices; nil until first delete
	deadN  int          // set bits in dead
	cost   atomic.Int64 // cumulative match work served (rows examined); rebalancing tiebreak
}

// live returns the shard's live (non-tombstoned) row count.
func (sh *shard) live() int { return sh.data.Len() - sh.deadN }

// isDead reports whether local row li is tombstoned. Rows past the
// bitmap's end (appended after the last delete grew it) are live.
func (sh *shard) isDead(li int) bool {
	return sh.deadN > 0 && li>>6 < len(sh.dead) && sh.dead[li>>6]&(1<<(uint(li)&63)) != 0
}

// markDead tombstones local row li, growing the bitmap on first use.
// Reports whether the row was live.
func (sh *shard) markDead(li int) bool {
	words := (sh.data.Len() + 63) >> 6
	for len(sh.dead) < words {
		sh.dead = append(sh.dead, 0)
	}
	if sh.dead[li>>6]&(1<<(uint(li)&63)) != 0 {
		return false
	}
	sh.dead[li>>6] |= 1 << (uint(li) & 63)
	sh.deadN++
	return true
}

// filterLiveFrom drops tombstoned rows from the ascending local
// matched set in the tail segment dst[start:], in place: earlier
// rules' results in dst[:start] are left untouched and the compacted
// slice is returned truncated.
func (sh *shard) filterLiveFrom(dst []int, start int) []int {
	if sh.deadN == 0 || len(dst) == start {
		return dst
	}
	w := start
	for _, li := range dst[start:] {
		if !sh.isDead(li) {
			dst[w] = li
			w++
		}
	}
	return dst[:w]
}

// P returns the current number of shards. Rebalancing splits and
// merges shards, so the count can drift from the configured one.
func (s *Engine) P() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.parts)
}

// Len returns the number of resident training patterns — live rows
// plus tombstoned rows awaiting compaction. Data().Len() equals it.
func (s *Engine) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data.Len()
}

// LiveLen returns the number of live training patterns: the rows
// match queries range over.
func (s *Engine) LiveLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data.Len() - s.deadTotal
}

// Data returns the full training dataset the shards partition. It is
// the pointer the engine was built over; mutations grow and shrink it
// in place, so evaluators keyed on it stay wired across the dataset's
// whole lifecycle. Between a Delete/Window and the compaction that
// follows it, the view still holds the tombstoned rows — no match
// result ever references them.
func (s *Engine) Data() *series.Dataset {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data
}

// Epoch returns the data epoch: the number of mutations (appends,
// deletes, windows, compactions, rebalances) performed. Evaluation-
// cache keys embed it, expiring every result computed against an
// older snapshot.
func (s *Engine) Epoch() uint64 { return s.epoch.Load() }

// ShardSizes returns the current resident pattern count of every
// shard (a diagnostics hook for tests and the streaming example).
func (s *Engine) ShardSizes() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sizes := make([]int, len(s.parts))
	for i, sh := range s.parts {
		sizes[i] = sh.data.Len()
	}
	return sizes
}

// ShardStat is one shard's lifecycle diagnostics.
type ShardStat struct {
	Resident int // rows physically in the shard (live + tombstoned)
	Live     int // rows match queries can return
	Dead     int // tombstoned rows awaiting compaction
	// Cost approximates rows examined serving match queries: a full
	// resident scan for the fallback path, rows collected for an
	// index hit. The units differ per path — it is a coarse heat
	// heuristic for rebalancing tie-breaks, not a precise counter —
	// and it resets when the shard is rewritten.
	Cost int64
}

// ShardStats returns per-shard live/dead sizes and cumulative query
// cost — the observables the rebalancing policy keys on.
func (s *Engine) ShardStats() []ShardStat {
	s.mu.RLock()
	defer s.mu.RUnlock()
	stats := make([]ShardStat, len(s.parts))
	for i, sh := range s.parts {
		stats[i] = ShardStat{
			Resident: sh.data.Len(),
			Live:     sh.live(),
			Dead:     sh.deadN,
			Cost:     sh.cost.Load(),
		}
	}
	return stats
}

// LiveSpread returns the smallest and largest live shard sizes — the
// observable the rebalancing policy bounds (hi <= 2*lo once balanced)
// and the one its consumers report.
func (s *Engine) LiveSpread() (lo, hi int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	lo = -1
	for _, sh := range s.parts {
		l := sh.live()
		if lo < 0 || l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	if lo < 0 {
		lo = 0
	}
	return lo, hi
}

// appendRows is the AppendRows implementation; AppendRows (engine.go)
// adds the telemetry and cache invalidation.
func (s *Engine) appendRows(inputs [][]float64, targets []float64, ids []series.RowID) error {
	if len(inputs) != len(targets) {
		return fmt.Errorf("engine: Append with %d inputs but %d targets", len(inputs), len(targets))
	}
	if ids != nil && len(ids) != len(inputs) {
		return fmt.Errorf("engine: AppendRows with %d inputs but %d ids", len(inputs), len(ids))
	}
	for i, row := range inputs {
		if len(row) != s.data.D {
			return fmt.Errorf("engine: Append pattern %d has width %d, want D=%d", i, len(row), s.data.D)
		}
	}
	if len(inputs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	if ids != nil {
		prev := s.nextID - 1
		for i, id := range ids {
			if id <= prev {
				return fmt.Errorf("engine: AppendRows id %d at %d is not ascending past %d", id, i, prev)
			}
			prev = id
		}
	}

	base := s.data.Len()
	s.data.Inputs = append(s.data.Inputs, inputs...)
	s.data.Targets = append(s.data.Targets, targets...)
	if ids != nil {
		s.data.IDs = append(s.data.IDs, ids...)
		s.nextID = ids[len(ids)-1] + 1
	} else {
		for range inputs {
			s.data.IDs = append(s.data.IDs, s.nextID)
			s.nextID++
		}
	}

	// Route the whole chunk to the shard with the fewest live rows:
	// one index rebuild per Append, and live sizes stay balanced
	// across a stream of chunks.
	sm := 0
	for i, sh := range s.parts {
		if sh.live() < s.parts[sm].live() {
			sm = i
		}
	}
	sh := s.parts[sm]
	for k := range inputs {
		g := base + k
		sh.global = append(sh.global, int32(g))
		sh.data.Inputs = append(sh.data.Inputs, s.data.Inputs[g])
		sh.data.Targets = append(sh.data.Targets, s.data.Targets[g])
	}
	sh.idx = core.NewMatchIndex(sh.data)
	sh.cost.Store(0)

	s.epoch.Add(1)
	if s.autoRebalance {
		s.rebalanceLocked()
	}
	return nil
}

// scanInto appends the shard-local live matched set to the per-shard
// arena by a linear scan — the reference path (the shards already
// provide the parallelism, so it stays serial). Tombstoned rows are
// skipped.
func (sh *shard) scanInto(dst []int, r *core.Rule) []int {
	sh.cost.Add(int64(sh.data.Len()) + 1)
	for i, row := range sh.data.Inputs {
		if sh.isDead(i) {
			continue
		}
		if r.Match(row) {
			dst = append(dst, i)
		}
	}
	return dst
}

// matchInto appends the shard-local live matched set to the per-shard
// arena: index lookup (on the shard's own most selective lag) when
// the shard index can answer, linear scan otherwise — core's
// IndexBackend two-path logic over the shard's patterns, with
// tombstoned rows filtered out of either path's result.
func (sh *shard) matchInto(dst []int, r *core.Rule, sc *core.MatchScratch) []int {
	start := len(dst)
	if out, ok := sh.idx.LookupInto(dst, r, sc); ok {
		sh.cost.Add(int64(len(out)-start) + 1)
		return sh.filterLiveFrom(out, start)
	}
	return sh.scanInto(dst, r)
}

// allLiveLocked returns every live global index, ascending — the
// all-wildcard answer. Callers hold mu (read or write).
func (s *Engine) allLiveLocked() []int {
	n := s.data.Len()
	live := n - s.deadTotal
	if live == 0 {
		return nil
	}
	if s.deadTotal == 0 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	words := make([]uint64, (n+63)>>6)
	for i := range words {
		words[i] = ^uint64(0)
	}
	if tail := n & 63; tail != 0 {
		words[len(words)-1] = 1<<uint(tail) - 1
	}
	for _, sh := range s.parts {
		if sh.deadN == 0 {
			continue
		}
		for li := range sh.data.Inputs {
			if sh.isDead(li) {
				g := sh.global[li]
				words[g>>6] &^= 1 << (uint(g) & 63)
			}
		}
	}
	return core.AppendSetBits(make([]int, 0, live), words)
}
