package engine

import (
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/series"
)

// Adaptive shard rebalancing. Appends route whole chunks to one shard
// and sliding windows evict from whichever shards hold the oldest
// rows, so skewed streams concentrate both data and query cost on hot
// shards — one oversized shard gates every fan-out query at its own
// latency. The policy below keeps live shard sizes within a constant
// factor of each other by splitting oversized shards and merging
// undersized ones, rebuilding only the indexes of the shards it
// touches. Splits and merges move rows between shards but never
// change the global view or any row's liveness, so — like compaction
// — rebalancing can never change a result.

// rebalanceBound is the live-size spread the policy drives toward: it
// stops once max <= rebalanceBound * min. 2x keeps fan-out latency
// within a factor of two of ideal while leaving enough slack that
// steady streams don't thrash.
const rebalanceBound = 2

// rebalance is the Rebalance implementation; Rebalance (engine.go)
// adds the telemetry and cache invalidation.
func (s *Engine) rebalance() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	ops := s.rebalanceLocked()
	if ops > 0 {
		// Results are unchanged — rebalancing is pure layout — but the
		// store's contract is one epoch bump per mutation, which keeps
		// "no cache entry survives a mutation" a simple invariant.
		s.epoch.Add(1)
	}
	return ops
}

// rebalanceLocked is the policy loop. Each step looks at live sizes:
// when the spread is outside the bound, either the two smallest
// shards merge (they fit inside the largest together — spread shrinks
// from below, shard count falls) or the largest shard splits into two
// live-balanced halves — ties broken toward the shard serving the
// most query cost, the "hot" one. When sizes are already balanced but
// earlier merges (or a tiny initial dataset) left fewer shards than
// configured, the largest shard splits to restore fan-out. The
// largest live size never increases and the smallest never decreases
// within a balancing phase, so the loop converges; a step cap guards
// it regardless. Callers hold mu and are responsible for the epoch
// bump.
func (s *Engine) rebalanceLocked() int {
	ops := 0
	maxSteps := 16 + 4*(len(s.parts)+s.targetP)
	for step := 0; step < maxSteps; step++ {
		s.dropEmptyLocked()
		minI, maxI := s.extremesLocked()
		minLive, maxLive := s.liveOfLocked(minI), s.liveOfLocked(maxI)
		balanced := maxLive <= rebalanceBound*minLive || maxLive-minLive <= 1
		switch {
		case balanced:
			if len(s.parts) >= s.targetP || maxLive < 2 || !s.splitStaysBalancedLocked(maxI) {
				return ops
			}
			s.splitLocked(maxI) // regrow fan-out lost to merges or a tiny seed
		case s.liveOfLocked(s.secondSmallestLocked(minI))+minLive <= maxLive && len(s.parts) > 1:
			s.mergeLocked(minI, s.secondSmallestLocked(minI))
		case maxLive >= 2:
			s.splitLocked(maxI)
		default:
			return ops
		}
		ops++
	}
	return ops
}

// splitStaysBalancedLocked reports whether splitting shard i would leave
// the layout inside the balance bound. The regrow-toward-targetP
// split only fires when it does — otherwise splitting and the merge
// rule would undo each other forever (split [5,5] → [5,3,2] → merge
// → [5,5] → ...).
func (s *Engine) splitStaysBalancedLocked(i int) bool {
	lo := s.liveOfLocked(i) / 2
	hi := s.liveOfLocked(i) - lo
	nmin, nmax := lo, hi
	for j := range s.parts {
		if j == i {
			continue
		}
		if l := s.liveOfLocked(j); l < nmin {
			nmin = l
		} else if l > nmax {
			nmax = l
		}
	}
	return nmax <= rebalanceBound*nmin || nmax-nmin <= 1
}

// liveOfLocked returns shard i's live size (0 when out of range).
func (s *Engine) liveOfLocked(i int) int {
	if i < 0 || i >= len(s.parts) {
		return 0
	}
	return s.parts[i].live()
}

// extremesLocked returns the indexes of the smallest and largest
// shards by live size. Ties go to the lower index for the minimum and
// to the higher query cost (then lower index) for the maximum, so the
// hottest of equally-oversized shards splits first.
func (s *Engine) extremesLocked() (minI, maxI int) {
	for i := 1; i < len(s.parts); i++ {
		if s.liveOfLocked(i) < s.liveOfLocked(minI) {
			minI = i
		}
		li, lm := s.liveOfLocked(i), s.liveOfLocked(maxI)
		if li > lm || li == lm && s.parts[i].cost.Load() > s.parts[maxI].cost.Load() {
			maxI = i
		}
	}
	return minI, maxI
}

// secondSmallestLocked returns the smallest shard other than skip, or
// -1 when there is none.
func (s *Engine) secondSmallestLocked(skip int) int {
	best := -1
	for i := range s.parts {
		if i == skip {
			continue
		}
		if best < 0 || s.liveOfLocked(i) < s.liveOfLocked(best) {
			best = i
		}
	}
	return best
}

// dropEmptyLocked removes shards with no resident rows at all (fully
// evicted-and-compacted windows leave them behind), keeping at least
// one so the engine stays queryable. No index rebuilds: removed
// shards hold nothing.
func (s *Engine) dropEmptyLocked() {
	keep := s.parts[:0]
	for _, sh := range s.parts {
		if sh.data.Len() > 0 {
			keep = append(keep, sh)
		}
	}
	if len(keep) == 0 {
		keep = s.parts[:1]
	}
	s.parts = keep
}

// splitLocked splits shard i into two halves balanced by live count
// (tombstoned rows travel with whichever half holds them) and
// rebuilds the two half indexes in parallel — together about the cost
// of the one rebuild the original shard would need anyway.
func (s *Engine) splitLocked(i int) {
	sh := s.parts[i]
	// Cut after half the live rows so both halves serve equal load.
	cut, liveSeen := 0, 0
	half := (sh.live() + 1) / 2
	for li := range sh.data.Inputs {
		if !sh.isDead(li) {
			liveSeen++
		}
		if liveSeen == half {
			cut = li + 1
			break
		}
	}
	lo := s.subShardLocked(sh, 0, cut)
	hi := s.subShardLocked(sh, cut, sh.data.Len())
	halves := []*shard{lo, hi}
	parallel.For(2, s.workers, func(k int) {
		halves[k].idx = core.NewMatchIndex(halves[k].data)
	})
	parts := make([]*shard, 0, len(s.parts)+1)
	parts = append(parts, s.parts[:i]...)
	parts = append(parts, lo, hi)
	parts = append(parts, s.parts[i+1:]...)
	s.parts = parts
}

// subShardLocked builds a shard over sh's local rows [from,to), carrying
// global positions and tombstones across (index left for the caller).
func (s *Engine) subShardLocked(sh *shard, from, to int) *shard {
	size := to - from
	out := &shard{
		global: append(make([]int32, 0, size), sh.global[from:to]...),
		data: &series.Dataset{
			Inputs:  append(make([][]float64, 0, size), sh.data.Inputs[from:to]...),
			Targets: append(make([]float64, 0, size), sh.data.Targets[from:to]...),
			D:       s.data.D,
			Horizon: s.data.Horizon,
		},
	}
	for li := from; li < to; li++ {
		if sh.isDead(li) {
			out.markDead(li - from)
		}
	}
	return out
}

// mergeLocked merges shards a and b into one (interleaving their rows
// back into ascending global order) and rebuilds the single merged
// index.
func (s *Engine) mergeLocked(a, b int) {
	if a > b {
		a, b = b, a
	}
	sa, sb := s.parts[a], s.parts[b]
	size := sa.data.Len() + sb.data.Len()
	m := &shard{
		global: make([]int32, 0, size),
		data: &series.Dataset{
			Inputs:  make([][]float64, 0, size),
			Targets: make([]float64, 0, size),
			D:       s.data.D,
			Horizon: s.data.Horizon,
		},
	}
	ia, ib := 0, 0
	for ia < sa.data.Len() || ib < sb.data.Len() {
		src, li := sb, ib
		if ib >= sb.data.Len() || ia < sa.data.Len() && sa.global[ia] < sb.global[ib] {
			src, li = sa, ia
			ia++
		} else {
			ib++
		}
		m.global = append(m.global, src.global[li])
		m.data.Inputs = append(m.data.Inputs, src.data.Inputs[li])
		m.data.Targets = append(m.data.Targets, src.data.Targets[li])
		if src.isDead(li) {
			m.markDead(m.data.Len() - 1)
		}
	}
	m.idx = core.NewMatchIndex(m.data)
	parts := make([]*shard, 0, len(s.parts)-1)
	for i, sh := range s.parts {
		switch i {
		case a:
			parts = append(parts, m)
		case b:
		default:
			parts = append(parts, sh)
		}
	}
	s.parts = parts
}
