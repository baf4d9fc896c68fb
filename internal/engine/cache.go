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
// configuration. The record hash is FNV-1a over the four little-endian
// bytes of each position — hash/fnv's sum, computed inline because a cold
// step hashes its whole group and Hash64.Write is an interface call per
// record — O(n) but ~50× cheaper per record than the scan it guards. The
// recommendation pass builds one key per candidate operation over ~90
// candidates each, so the candidate set is named by its length and the sum
// of its keys' hashes — any order of one set adds up the same — not cloned,
// sorted and spelled out; the rest is appended field by field, no fmt.
func cacheKey(group *query.RatingGroup, candidates []ratingmap.Key, u ratingmap.UtilityConfig) string {
	h := uint64(fnvOffset64)
	for _, r := range group.Records {
		p := uint32(r)
		h = (h ^ uint64(p&0xff)) * fnvPrime64
		h = (h ^ uint64(p>>8&0xff)) * fnvPrime64
		h = (h ^ uint64(p>>16&0xff)) * fnvPrime64
		h = (h ^ uint64(p>>24)) * fnvPrime64
	}
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
	b = strconv.AppendUint(b, h, 16)
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

// keyHash hashes one candidate key: FNV-1a over side, dimension, attribute
// length and attribute bytes — the length keeps "a"+"bc" apart from
// "ab"+"c" — finished with the murmur3 mixer. FNV's last step is linear in
// the last byte, and a sum of such hashes cannot tell two sets that swapped
// their last bytes apart; a sum of mixed ones can.
func keyHash(k ratingmap.Key) uint64 {
	h := uint64(fnvOffset64)
	h = (h ^ uint64(k.Side)) * fnvPrime64
	h = (h ^ uint64(k.Dim)) * fnvPrime64
	h = (h ^ uint64(len(k.Attr))) * fnvPrime64
	for i := 0; i < len(k.Attr); i++ {
		h = (h ^ uint64(k.Attr[i])) * fnvPrime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
