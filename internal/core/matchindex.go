package core

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/series"
)

// MatchIndex is the indexed match engine: a per-dimension sorted view
// of a training dataset that answers "which patterns does this rule
// match" (the paper's C_R(S)) without scanning all n patterns. For
// each input lag j it keeps the pattern indices sorted by the lag's
// value, so the patterns satisfying one interval gene form a
// contiguous run found by two binary searches. A rule's matched set
// is computed by taking the run of its most selective gene and
// verifying only those candidates against the remaining genes —
// O(D·log n + k·D) for k candidates instead of O(n·D) per rule.
//
// The index is immutable after construction and therefore safe for
// concurrent use; it can be shared across every Evaluator, Execution,
// island and experiment run over the same dataset. The sharded
// evaluation engine (internal/engine) builds one MatchIndex per shard
// and drives it through the exported GeneRange, CollectWithinInto and
// LookupInto.
type MatchIndex struct {
	data *series.Dataset
	cols *series.Columns // column-major snapshot; verification scans these
	vals [][]float64     // vals[j][k]: k-th smallest value of lag j
	perm [][]int32       // perm[j][k]: pattern index holding vals[j][k]

	// degenerate is set when the data contains NaN: NaN has no total
	// order, so the sorted-run invariant the binary searches rely on
	// does not hold and every lookup must fall back to scanning
	// (where Rule.Match defines the NaN semantics).
	degenerate bool
}

// NewMatchIndex builds the per-dimension sorted indexes over the
// dataset, plus the columnar (SoA) view candidate verification scans.
// Cost is O(D·n·log n) once, amortized over the many thousands of rule
// evaluations of an evolutionary run.
func NewMatchIndex(data *series.Dataset) *MatchIndex {
	n, d := data.Len(), data.D
	ix := &MatchIndex{
		data: data,
		cols: data.BuildColumns(),
		vals: make([][]float64, d),
		perm: make([][]int32, d),
	}
	for j := 0; j < d; j++ {
		col := ix.cols.F64[j]
		p := make([]int32, n)
		for i := range p {
			p[i] = int32(i)
		}
		sort.Slice(p, func(a, b int) bool {
			va, vb := col[p[a]], col[p[b]]
			if va != vb {
				return va < vb
			}
			return p[a] < p[b] // deterministic tie-break
		})
		v := make([]float64, n)
		for k, i := range p {
			v[k] = col[i]
			if math.IsNaN(v[k]) {
				ix.degenerate = true
			}
		}
		ix.perm[j] = p
		ix.vals[j] = v
	}
	return ix
}

// Data returns the dataset the index was built over.
func (ix *MatchIndex) Data() *series.Dataset { return ix.data }

// Degenerate reports whether the indexed data contains NaN, in which
// case range queries are unanswerable and every lookup defers to the
// scan path.
func (ix *MatchIndex) Degenerate() bool { return ix.degenerate }

// GeneRange returns the candidate run [lo,hi) in the lag-j sorted
// order holding every pattern whose lag-j value satisfies the gene.
// ok=false means the index cannot answer range queries — the data is
// NaN-degenerate or the gene has a NaN bound (a NaN bound is
// unconstraining in Rule.Match but poisons the binary searches) —
// and the caller must fall back to scanning. The gene must not be a
// wildcard. Exported for the sharded engine's scheduling pass, which
// sums ranges across shards to find a batch's most selective lag.
func (ix *MatchIndex) GeneRange(j int, iv Interval) (lo, hi int, ok bool) {
	if ix.degenerate || math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) {
		return 0, 0, false
	}
	vals := ix.vals[j]
	lo = searchGE(vals, iv.Lo)
	hi = searchGT(vals, iv.Hi)
	if hi < lo {
		// Inverted gene (Lo > Hi, built without NewInterval's
		// normalization): Contains is false everywhere, matching
		// the scan's empty result.
		hi = lo
	}
	return lo, hi, true
}

// MatchScratch is the reusable per-worker scratch of the columnar
// verification pass: a candidate buffer the prefilter compacts in
// place (the serial scan collects its hits there too) and a bitmap
// used to restore ascending index order. The
// zero value is ready to use; buffers grow on demand and are retained
// across calls. A MatchScratch must not be used concurrently.
//
// The bitmap carries an invariant: it is all-zero between calls
// (every sweep clears the words it set), so reusing it never requires
// an O(n/64) clear.
type MatchScratch struct {
	cand  []int32
	words []uint64
}

// matchScratchPool recycles scratch across IndexBackend.MatchIndices
// calls; the sharded engine holds one MatchScratch per shard walk
// instead, in its own pooled per-shard state.
var matchScratchPool = sync.Pool{New: func() any { return new(MatchScratch) }}

// GetMatchScratch returns a pooled MatchScratch ready for use.
func GetMatchScratch() *MatchScratch { return matchScratchPool.Get().(*MatchScratch) }

// PutMatchScratch returns scratch to the pool. The caller must not
// retain any slice derived from it.
func PutMatchScratch(sc *MatchScratch) { matchScratchPool.Put(sc) }

// filterCandidates narrows the candidate run perm[j][lo:hi] to the
// patterns matching the full rule, compacting in place inside
// sc.cand. Two passes over contiguous per-lag columns:
//
//  1. quantized prefilter — compare float32 shadow values against the
//     float32-widened gene bounds. The conversion is monotone, so
//     this pass can only keep false positives, never drop a true
//     match (see series.Columns).
//  2. exact float64 verification of the survivors, the final arbiter.
//
// Both passes use Rule.Match's reject-iff (v < Lo || v > Hi) form per
// gene, so NaN values and NaN bounds behave exactly as in the scan
// path, and gene j is skipped — the sorted-run construction already
// satisfied it exactly.
func (ix *MatchIndex) filterCandidates(j, lo, hi int, r *Rule, sc *MatchScratch) []int32 {
	if cap(sc.cand) < hi-lo {
		sc.cand = make([]int32, 0, hi-lo)
	}
	cand := append(sc.cand[:0], ix.perm[j][lo:hi]...)
	for k, iv := range r.Cond {
		if iv.Wildcard || k == j || len(cand) == 0 {
			continue
		}
		fLo, fHi := float32(iv.Lo), float32(iv.Hi)
		col := ix.cols.F32[k]
		w := cand[:0]
		for _, pi := range cand {
			if v := col[pi]; v < fLo || v > fHi {
				continue
			}
			w = append(w, pi)
		}
		cand = w
	}
	for k, iv := range r.Cond {
		if iv.Wildcard || k == j || len(cand) == 0 {
			continue
		}
		col := ix.cols.F64[k]
		w := cand[:0]
		for _, pi := range cand {
			if v := col[pi]; v < iv.Lo || v > iv.Hi {
				continue
			}
			w = append(w, pi)
		}
		cand = w
	}
	sc.cand = cand
	return cand
}

// appendOrdered appends the survivor set to dst in ascending index
// order: set the survivors in the scratch bitmap, sweep the touched
// word range, and clear each word as it is swept (restoring the
// scratch's all-zero invariant). O(k + touched-words).
func appendOrdered(dst []int, cand []int32, n int, sc *MatchScratch) []int {
	need := (n + 63) >> 6
	if cap(sc.words) < need {
		sc.words = make([]uint64, need)
	}
	words := sc.words[:need]
	wmin, wmax := need, -1
	for _, pi := range cand {
		w := int(pi) >> 6
		words[w] |= 1 << (uint(pi) & 63)
		if w < wmin {
			wmin = w
		}
		if w > wmax {
			wmax = w
		}
	}
	return SweepClearBits(dst, words, wmin, wmax)
}

// SweepClearBits appends the position of every set bit in
// words[wmin..wmax] to dst in ascending order, zeroing each word as it
// is swept — the ordered read-out of a pooled bitmap that must be
// all-zero again afterwards. It is shared by the index's candidate
// sweep and the sharded engine's per-rule merge. O(k + wmax-wmin) for
// k set bits; an empty range (wmax < wmin) appends nothing.
func SweepClearBits(dst []int, words []uint64, wmin, wmax int) []int {
	for w := wmin; w <= wmax; w++ {
		if word := words[w]; word != 0 {
			words[w] = 0
			dst = appendWordBits(dst, w, word)
		}
	}
	return dst
}

// searchGE returns the first k with vals[k] >= x — the same answer as
// sort.SearchFloat64s, as a direct loop: GeneRange runs once per gene
// per shard per rule in the batch scheduling pass, where the
// closure-calling generic search is measurable.
func searchGE(vals []float64, x float64) int {
	lo, hi := 0, len(vals)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if vals[m] < x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// searchGT returns the first k with vals[k] > x.
func searchGT(vals []float64, x float64) int {
	lo, hi := 0, len(vals)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if vals[m] <= x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// CollectWithinInto verifies the candidates perm[j][lo:hi] against
// the full rule and appends the matching pattern indices to dst in
// ascending order, using caller-owned scratch. Candidates arrive in
// value order, but callers (and the naive scan this must stay
// interchangeable with) expect ascending index order; the bitmap sweep
// restores it in O(k + touched-words), far cheaper than sorting.
// dst grows at most once, by the verified candidate count, so a nil
// dst comes back exact-size. Exported for the sharded engine, which
// walks one shard index per rule group with a precomputed range.
func (ix *MatchIndex) CollectWithinInto(dst []int, j, lo, hi int, r *Rule, sc *MatchScratch) []int {
	cand := ix.filterCandidates(j, lo, hi, r, sc)
	if len(cand) == 0 {
		return dst
	}
	return appendOrdered(slices.Grow(dst, len(cand)), cand, len(ix.data.Targets), sc)
}

// AppendSetBits appends the position of every set bit in words to out
// in ascending order, leaving words unchanged — the read-out of a
// freshly built bitmap (the engine's live-row enumeration, the remote
// cluster's merge). O(k + n/64) for k set bits over an n-bit bitmap.
func AppendSetBits(out []int, words []uint64) []int {
	for w, word := range words {
		out = appendWordBits(out, w, word)
	}
	return out
}

// appendWordBits appends the positions of word's set bits, offset by
// w<<6, to out in ascending order — the single-word step of both
// bitmap sweeps.
func appendWordBits(out []int, w int, word uint64) []int {
	base := w << 6
	for word != 0 {
		b := bits.TrailingZeros64(word)
		out = append(out, base+b)
		word &^= 1 << b
	}
	return out
}

// bestGene finds the rule's most selective non-wildcard gene and its
// candidate run. ok=false means some gene is unanswerable (degenerate
// data or NaN bounds) and the caller must scan. dim == -1 with ok
// means the rule is all-wildcard.
func (ix *MatchIndex) bestGene(r *Rule) (dim, lo, hi int, ok bool) {
	if ix.degenerate {
		return 0, 0, 0, false
	}
	bestCount := len(ix.data.Targets) + 1
	dim = -1
	for j, iv := range r.Cond {
		if iv.Wildcard {
			continue
		}
		jlo, jhi, rangeOK := ix.GeneRange(j, iv)
		if !rangeOK {
			return 0, 0, 0, false
		}
		if c := jhi - jlo; c < bestCount {
			dim, lo, hi, bestCount = j, jlo, jhi, c
		}
	}
	return dim, lo, hi, true
}

// LookupInto appends the rule's matched pattern indices to dst in
// ascending order, using caller-owned scratch. ok=false means no gene
// is selective enough for the index to beat a linear scan (or the
// data/bounds are NaN-degenerate): dst is returned unchanged and the
// caller should scan instead. Both paths return identical results, so
// the choice never affects outcomes.
func (ix *MatchIndex) LookupInto(dst []int, r *Rule, sc *MatchScratch) (out []int, ok bool) {
	bestDim, bestLo, bestHi, ok := ix.bestGene(r)
	if !ok {
		return dst, false
	}
	n := len(ix.data.Targets)
	if bestDim == -1 {
		dst = slices.Grow(dst, n)
		for i := 0; i < n; i++ {
			dst = append(dst, i)
		}
		return dst, true
	}
	if bestHi == bestLo {
		return dst, true
	}
	// When even the most selective gene admits over half the dataset,
	// candidate verification plus the ordering sweep costs about as
	// much as the straight scan, which also visits indices in order for
	// free — let the caller scan.
	if (bestHi-bestLo)*2 > n {
		return dst, false
	}
	return ix.CollectWithinInto(dst, bestDim, bestLo, bestHi, r, sc), true
}

// --- offspring-side evaluation cache -----------------------------------

// appendCondKey appends a byte-exact signature of a rule's
// conditional part: one tag byte per gene plus the IEEE-754 bits of
// its bounds. Two rules share a signature iff their matched sets and
// fitted consequents are necessarily identical, so cached results are
// exact, not approximate. (The full cache key prefixes the data epoch
// and the evaluator parameters; see Evaluator.evalKey.)
func appendCondKey(b []byte, cond []Interval) []byte {
	var u [8]byte
	for _, iv := range cond {
		if iv.Wildcard {
			b = append(b, 1)
			continue
		}
		b = append(b, 0)
		binary.LittleEndian.PutUint64(u[:], math.Float64bits(iv.Lo))
		b = append(b, u[:]...)
		binary.LittleEndian.PutUint64(u[:], math.Float64bits(iv.Hi))
		b = append(b, u[:]...)
	}
	return b
}

// evalCache is the default, evaluator-private EvalCache: offspring
// whose genes survived mutation/crossover unchanged reuse prior
// match/regression work. Because evaluation is a deterministic
// function of the key (which encodes epoch, parameters and the
// conditional part), cache hits are bit-identical to recomputation —
// results never depend on hit patterns, and therefore not on
// goroutine scheduling either.
type evalCache struct {
	mu     sync.RWMutex
	m      map[string]*EvalResult // guarded by mu
	hits   atomic.Int64
	misses atomic.Int64
}

// evalCacheLimit bounds cache memory. When the map fills up it is
// dropped wholesale (generation-style eviction): the population keeps
// re-seeding the hot entries, and the bound keeps week-long runs flat.
const evalCacheLimit = 1 << 15

func newEvalCache() *evalCache {
	return &evalCache{m: make(map[string]*EvalResult)}
}

// Get is the hot path shared by every EvaluateAll worker: a read lock
// on the map plus atomic counters, so concurrent cache hits never
// serialize on an exclusive lock.
func (c *evalCache) Get(key string) *EvalResult {
	c.mu.RLock()
	e := c.m[key]
	c.mu.RUnlock()
	if e != nil {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e
}

// Put memoizes one result, dropping the whole map at the size bound.
func (c *evalCache) Put(key string, e *EvalResult) {
	c.mu.Lock()
	if len(c.m) >= evalCacheLimit {
		c.m = make(map[string]*EvalResult)
	}
	c.m[key] = e
	c.mu.Unlock()
}

// Stats returns the hit/miss counters (for tests and benchmarks).
func (c *evalCache) Stats() (hits, misses int) {
	return int(c.hits.Load()), int(c.misses.Load())
}
