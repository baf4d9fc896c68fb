// Cross-step accumulator cache: exploration walks revisit heavily
// overlapping rating groups (filter → generalize → filter returns to a
// selection whose maps were already computed, and the candidate operations
// the Recommendation Builder scores recur step after step: their groups are
// cheap to derive, their scans are not). The scan — not the scoring —
// dominates TopMaps, and the accumulated histograms depend only on (record
// set, candidate set), NOT on the session's seen-set; memoizing completed
// accumulators therefore lets a repeated step skip the scan entirely while
// the cheap finalize pass still runs fresh against the current history, so
// cached and uncached steps return identical Results. This is the
// repeated-subquery memoization of the Subjective Databases system
// (Li et al.) applied to SubDEx's aggregation hot path, budgeted like the
// query layer's group cache (cf. Data Canopy [57]).

package engine

import (
	"container/list"
	"strconv"
	"sync"

	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// TopMapsCache memoizes fully-accumulated, unpruned accumulators across
// TopMaps calls. Entries are keyed by (group signature, candidate-key
// set, utility config) and budgeted by total cached record count — the
// scan cost a hit saves — with LRU eviction.
//
// Correctness invariant: only accumulators from COMPLETE, UNPRUNED scans
// are admitted (every candidate's histogram covers every record of the
// group). A hit bypasses the phase/pruning machinery and finalizes the
// exact ranking directly; for unpruned configurations this is
// bit-identical to the uncached run, for pruned configurations it is the
// exact (strictly no-worse) answer the pruned run approximates w.h.p.
// Cached accumulators are shared and read-only after publication;
// concurrent finalize passes over one entry are safe.
type TopMapsCache struct {
	mu      sync.Mutex
	budget  int
	used    int
	order   *list.List // front = most recently used
	entries map[string]*list.Element

	hits, misses, evictions int64
}

type topMapsCacheEntry struct {
	key  string
	acc  *ratingmap.Accumulator
	cost int // record count of the cached scan
}

// NewTopMapsCache returns a cache budgeted by total cached record count
// (≤ 0 yields a cache that stores nothing but still counts misses).
func NewTopMapsCache(budgetRecords int) *TopMapsCache {
	return &TopMapsCache{
		budget:  budgetRecords,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// get returns the cached accumulator for key, if any, marking it most
// recently used.
func (c *TopMapsCache) get(key string) (*ratingmap.Accumulator, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*topMapsCacheEntry).acc, true
}

// put admits a completed accumulator, evicting LRU entries until the
// record budget holds. It counts the evictions under the lock that made
// them — Stats never shows entries gone but not yet counted — and returns
// how many there were, for the metrics counter. Entries larger than the
// whole budget are never admitted.
func (c *TopMapsCache) put(key string, acc *ratingmap.Accumulator, cost int) int {
	if c == nil || c.budget <= 0 || cost > c.budget {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return 0
	}
	evicted := 0
	for c.used+cost > c.budget {
		back := c.order.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*topMapsCacheEntry)
		c.used -= ev.cost
		delete(c.entries, ev.key)
		c.order.Remove(back)
		evicted++
	}
	c.evictions += int64(evicted)
	el := c.order.PushFront(&topMapsCacheEntry{key: key, acc: acc, cost: cost})
	c.entries[key] = el
	c.used += cost
	return evicted
}

// Invalidate drops every entry (and resets nothing else: hit/miss
// counters keep accumulating). Call it when the underlying database is
// swapped or mutated out from under the engine.
func (c *TopMapsCache) Invalidate() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.entries = make(map[string]*list.Element)
	c.used = 0
}

// CacheStats is a point-in-time snapshot of the cache, surfaced by the
// server's /debug/cache endpoint and by cmd/sdebench.
type CacheStats struct {
	Entries       int   `json:"entries"`
	UsedRecords   int   `json:"used_records"`
	BudgetRecords int   `json:"budget_records"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the cache counters. Nil-safe (zero stats).
func (c *TopMapsCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:       len(c.entries),
		UsedRecords:   c.used,
		BudgetRecords: c.budget,
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
	}
}

// The 64-bit FNV-1a parameters, as in hash/fnv.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// cacheKey builds the lookup key: the group signature (description +
// record-set hash, distinguishing subsampled groups from their full
// selection), the candidate-key set (order-insensitive), and the utility
// configuration. A cold step hashes its whole group for a lookup that
// cannot hit, so the record hash (recordsHash) is O(n) but one multiply for
// two records (BenchmarkCacheKey: 30 µs for 46 000). The recommendation
// pass builds one key per candidate operation over ~90 candidates each, so
// the candidate set is named by its length and the sum of its keys' hashes
// — any order of one set adds up the same — not cloned, sorted and spelled
// out; the rest is appended field by field, no fmt.
func cacheKey(group *query.RatingGroup, candidates []ratingmap.Key, u ratingmap.UtilityConfig) string {
	set := uint64(0)
	for _, k := range candidates {
		set += keyHash(k)
	}
	desc := group.Desc.Key()
	b := make([]byte, 0, len(desc)+96)
	b = append(b, desc...)
	b = append(b, 0x02)
	b = strconv.AppendInt(b, int64(len(group.Records)), 10)
	b = append(b, 0x02)
	b = strconv.AppendUint(b, recordsHash(group.Records), 16)
	b = append(b, 0x02)
	b = strconv.AppendInt(b, int64(len(candidates)), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, set, 16)
	b = append(b, 0x02)
	b = strconv.AppendInt(b, int64(u.Aggregation), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(u.Single), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(u.Peculiarity), 10)
	b = append(b, '|')
	b = strconv.AppendBool(b, u.DisableDimensionWeights)
	b = append(b, '|')
	b = strconv.AppendBool(b, u.Normalize)
	return string(b)
}

// recordsHash hashes a record list in order: FNV-1a's xor-and-multiply over
// 64-bit words of two positions each (an odd list's last position is a word
// of its own), finished with mix64. Every position feeds the hash, so a
// sampled or hand-built group cannot pass for the selection its description
// names; each step is a bijection of the running hash, so two lists that
// differ in one position never collide; and the chain is one multiply per
// word where hash/fnv's byte-wise sum, which this replaced, makes eight
// (236 µs for the same 46 000).
func recordsHash(records []int32) uint64 {
	h := uint64(fnvOffset64)
	for ; len(records) >= 2; records = records[2:] {
		h = (h ^ (uint64(uint32(records[0])) | uint64(uint32(records[1]))<<32)) * fnvPrime64
	}
	if len(records) == 1 {
		h = (h ^ uint64(uint32(records[0]))) * fnvPrime64
	}
	return mix64(h)
}

// keyHash hashes one candidate key: FNV-1a over side, dimension, attribute
// length and attribute bytes — the length keeps "a"+"bc" apart from
// "ab"+"c" — finished with mix64. FNV's last step is linear in the last
// byte, and a sum of such hashes cannot tell two sets that swapped their
// last bytes apart; a sum of mixed ones can.
func keyHash(k ratingmap.Key) uint64 {
	h := uint64(fnvOffset64)
	h = (h ^ uint64(k.Side)) * fnvPrime64
	h = (h ^ uint64(k.Dim)) * fnvPrime64
	h = (h ^ uint64(len(k.Attr))) * fnvPrime64
	for i := 0; i < len(k.Attr); i++ {
		h = (h ^ uint64(k.Attr[i])) * fnvPrime64
	}
	return mix64(h)
}

// mix64 is the murmur3 finalizer: every input bit reaches every output bit.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
