package engine

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/parallel"
)

// batchPlan is the per-rule outcome of the scheduling pass: the
// batch-global most selective lag (aggregated across shards), or the
// two degenerate shapes that bypass the group walk.
type batchPlan struct {
	dim      int  // most selective lag; -1 when unusable
	wildcard bool // all-wildcard rule: every pattern matches
}

// shardPass is the reusable per-shard working state of one batch
// walk: the match-set arena every rule's shard-local result is
// appended into, the per-rule views into it, and the candidate
// scratch of the columnar verify pass. Pooled across batches so a
// steady-state generation reuses the same few buffers; nothing in a
// shardPass ever escapes matchBatch (merged results are written to a
// fresh buffer).
type shardPass struct {
	sc    core.MatchScratch
	arena []int
	mine  [][]int
}

var shardPassPool = sync.Pool{New: func() any { return new(shardPass) }}

// mergeScratch is the pooled bitmap of the per-rule result merge. It
// carries the same all-zero-between-uses invariant as
// core.MatchScratch: every merge clears the words it set.
type mergeScratch struct {
	words []uint64
}

var mergeScratchPool = sync.Pool{New: func() any { return new(mergeScratch) }}

// matchBatch is the one match kernel behind both MatchBatch and
// MatchIndices (a batch of one); MatchBatch (engine.go) adds the
// optional latency/size instrumentation. Once stop is closed the
// remaining work is skipped and the result is incomplete; a nil stop
// (the single-rule path, which has no context) never closes.
func (s *Engine) matchBatch(stop <-chan struct{}, rules []*core.Rule) [][]int {
	out := make([][]int, len(rules))
	if len(rules) == 0 {
		return out
	}
	s.mu.RLock()
	defer s.mu.RUnlock()

	// Scheduling pass: aggregate per-gene selectivity across shards. A
	// lone rule has nothing to group with, so it skips the pass and
	// every shard picks its own most selective lag (dim -1) — cheaper
	// for the steady-state step, and the same matched set either way.
	plans := make([]batchPlan, len(rules))
	if len(rules) == 1 {
		plans[0].dim = -1
	} else if parallel.ForDone(stop, len(rules), s.workers, func(w int) {
		plans[w] = s.planLocked(rules[w])
	}) {
		return out
	}

	// Group rules by their most selective lag. The order is the sort
	// key only — results are per-rule, so it cannot affect outcomes.
	order := make([]int, 0, len(rules))
	for w, p := range plans {
		if !p.wildcard {
			order = append(order, w)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(plans[a].dim, plans[b].dim)
	})

	// Shard-major walk: each shard serves every group in lag order,
	// appending results into its pooled arena and checking stop
	// between rules so a cancelled run abandons the walk mid-shard
	// instead of finishing the generation.
	locals := make([][][]int, len(s.parts))
	passes := make([]*shardPass, len(s.parts))
	defer func() {
		for _, p := range passes {
			if p != nil {
				shardPassPool.Put(p)
			}
		}
	}()
	if parallel.ForDone(stop, len(s.parts), s.workers, func(si int) {
		sh := s.parts[si]
		p := shardPassPool.Get().(*shardPass)
		passes[si] = p
		mine := p.mine
		if cap(mine) < len(rules) {
			mine = make([][]int, len(rules))
		} else {
			mine = mine[:len(rules)]
			for i := range mine {
				mine[i] = nil
			}
		}
		arena := p.arena[:0]
		for _, w := range order {
			if parallel.Closed(stop) {
				break
			}
			start := len(arena)
			arena = sh.matchAlongInto(arena, rules[w], plans[w].dim, &p.sc)
			// Capacity-capped view: a later rule appending to the arena
			// can never grow into this one's segment. (Arena growth may
			// reallocate; earlier views then point at the old backing,
			// whose values are unchanged.)
			mine[w] = arena[start:len(arena):len(arena)]
		}
		p.mine, p.arena = mine, arena
		locals[si] = mine
	}) {
		return out
	}

	// Per-rule merge of the shard results (ascending global indices).
	// All-wildcard rules share one live-row enumeration: every live
	// pattern matches, no shard walk or merge needed. All merged
	// results are segments of one freshly allocated flat buffer —
	// callers own their result slices, and no pooled memory escapes.
	var allLive []int
	for _, p := range plans {
		if p.wildcard {
			allLive = s.allLiveLocked()
			break
		}
	}
	offs := make([]int, len(rules)+1)
	for w := range rules {
		t := 0
		if plans[w].wildcard {
			t = len(allLive)
		} else {
			for si := range locals {
				t += len(locals[si][w])
			}
		}
		offs[w+1] = offs[w] + t
	}
	flat := make([]int, offs[len(rules)])
	parallel.ForDone(stop, len(rules), s.workers, func(w int) {
		if offs[w+1] == offs[w] {
			return // nothing matched: out[w] stays nil, like the scan path
		}
		// Three-index segment: appends cannot cross into a sibling.
		seg := flat[offs[w]:offs[w]:offs[w+1]]
		if plans[w].wildcard {
			out[w] = append(seg, allLive...)
			return
		}
		ms := mergeScratchPool.Get().(*mergeScratch)
		out[w] = s.mergeIntoLocked(seg, locals, w, ms)
		mergeScratchPool.Put(ms)
	})
	return out
}

// mergeIntoLocked unions one rule's per-shard local matches into dst,
// ascending by global index. Shard index sets are disjoint but —
// after appends — interleaved, so hits are collected in the pooled
// bitmap over global indices and the touched word range is swept in
// order by core.SweepClearBits (restoring the scratch's all-zero
// invariant): O(k + touched-words), independent of shard layout, and
// deterministic for any parallelism.
func (s *Engine) mergeIntoLocked(dst []int, locals [][][]int, w int, ms *mergeScratch) []int {
	need := (s.data.Len() + 63) >> 6
	if cap(ms.words) < need {
		ms.words = make([]uint64, need)
	}
	words := ms.words[:need]
	wmin, wmax := need, -1
	for si := range locals {
		l := locals[si][w]
		if len(l) == 0 {
			continue
		}
		g := s.parts[si].global
		for _, li := range l {
			gi := g[li]
			wd := int(gi) >> 6
			words[wd] |= 1 << (uint(gi) & 63)
			if wd < wmin {
				wmin = wd
			}
			if wd > wmax {
				wmax = wd
			}
		}
	}
	return core.SweepClearBits(dst, words, wmin, wmax)
}

// planLocked finds the rule's batch-global most selective lag: the
// non-wildcard gene whose candidate ranges, summed across every
// shard, admit the fewest patterns. A gene unanswerable in any shard
// (NaN bound, or a shard with NaN-degenerate data) is skipped; when
// no gene is answerable everywhere the plan's dim is -1 and each
// shard falls back to its own two-path logic.
func (s *Engine) planLocked(r *core.Rule) batchPlan {
	bestDim := -1
	bestCount := -1
	hasGene := false
	for j, iv := range r.Cond {
		if iv.Wildcard {
			continue
		}
		hasGene = true
		total, ok := 0, true
		for _, sh := range s.parts {
			lo, hi, rangeOK := sh.idx.GeneRange(j, iv)
			if !rangeOK {
				ok = false
				break
			}
			total += hi - lo
			if bestCount >= 0 && total >= bestCount {
				// Already no better than the incumbent (selection is by
				// strict <, so a tie keeps the earlier gene either way):
				// stop summing the remaining shards.
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if bestCount < 0 || total < bestCount {
			bestDim, bestCount = j, total
		}
	}
	return batchPlan{dim: bestDim, wildcard: !hasGene}
}

// matchAlongInto computes the shard-local matched set into the
// per-shard arena, preferring the batch's group lag so consecutive
// rules of a group walk the same per-shard sorted arrays. When the
// group lag is unanswerable or not selective enough in this
// particular shard (aggregate selectivity is a global property; one
// shard's slice of it can still be wide), the shard falls back to its
// own per-rule choice — every path returns the exact shard-local
// matched set, so the preference is purely a locality optimization.
func (sh *shard) matchAlongInto(dst []int, r *core.Rule, dim int, sc *core.MatchScratch) []int {
	if dim >= 0 {
		ns := sh.data.Len()
		if lo, hi, ok := sh.idx.GeneRange(dim, r.Cond[dim]); ok {
			if hi == lo {
				return dst
			}
			if (hi-lo)*2 <= ns {
				sh.cost.Add(int64(hi-lo) + 1)
				start := len(dst)
				dst = sh.idx.CollectWithinInto(dst, dim, lo, hi, r, sc)
				return sh.filterLiveFrom(dst, start)
			}
		}
	}
	return sh.matchInto(dst, r, sc)
}
