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
// (Li et al.) applied to SubDEx's aggregation hot path (cf. Data Canopy
// [57]). Unlike the query layer's group cache, which is budgeted in the
// bytes its entries hold, this one is budgeted in records.
//
// The budget is in records — the scan a hit saves — and an entry's bytes do
// not depend on its records: an accumulator is one counter block per
// candidate, sized by the attributes' dictionaries, and a pooled one holds
// the capacity of its schema's every candidate (≈ 27 KB on Yelp's 96),
// whether the group has ten records or ten thousand. A budget
// in records alone therefore bounds nothing in bytes — a million one-record
// groups would fit — and charges most for the entries that earn most. So
// admission has a floor (cacheFloorRecords): a group under it is cheaper to
// scan again than to key, admit and later evict, is never looked up, and
// with it the cache holds at most budget / floor entries.

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
// Cached accumulators are shared and read-only while an entry has
// readers; concurrent finalize passes over one entry are safe. A reader is
// a TopMapsIfCtx call between taking the entry — get on a hit, put for the
// scan it admits — and release, after its finalize. An evicted entry's
// accumulator goes back to the engine's pool (recycle) when its last
// reader releases it, never while one still reads it.
type TopMapsCache struct {
	mu      sync.Mutex
	budget  int
	used    int
	bytes   int64
	order   *list.List // front = most recently used
	entries map[string]*list.Element

	hits, misses, evictions, bypassed int64

	// recycle takes the accumulator of an evicted entry nobody reads any
	// more: the engine's pool (accumulators), or a test's recorder. put
	// calls it under mu, so it must neither block nor call the cache.
	recycle func(*ratingmap.Accumulator)
}

type topMapsCacheEntry struct {
	key   string
	acc   *ratingmap.Accumulator
	cost  int // record count of the cached scan
	bytes int // acc.Bytes() at admission; a published accumulator never grows
	// readers counts the calls reading acc; evicted marks an entry put has
	// dropped, whose last reader recycles acc. Both are guarded by the
	// cache's mu.
	readers int
	evicted bool
}

// cacheFloorRecords is the admission floor: a group of fewer records is
// neither looked up nor admitted (Profile.Cache = "bypass") and scans into a
// recycled accumulator instead. The arithmetic that places it: an entry
// costs ≈ 9 µs to make, key and admit (a fresh ≈ 21 KB accumulator, as
// admissions were then, cacheKey, put and the eviction it forces), a hit
// saves the scan, ≈ 0.11 µs a record, and comes with probability ≈ 0.31 on
// a guided walk — break-even near 260 records. Measured, not tuned per
// dataset, on the code as shipped (two shared vCPUs, 2026-10-05). bench
// guided_walk (Yelp 0.25; seeds 1 / 2, steps/s) with the floor at
//
//	0 (every group cached)   78.2 / 81.2    alloc_kb_per_step 5 057
//	64                       88.7 / 84.7    3 366
//	256                      87.2 / 84.4    3 000
//	1 024                    85.3 / 82.5    2 752
//	2 001 (nothing cached:   65.7 / 62.2    2 403, step_p90_ms 40–43 against 19
//	  over RecSampleSize)
//
// — flat from 64 to 1 024, and a floor at the sample cap gives back the
// cache's whole 1.5×: it is earned by the sample-capped tenth of the
// candidates that make three quarters of the increments, and by nothing
// under a few hundred records. BenchmarkRecommendPass/…/cache_on, the same
// pass forty times over so that every lookup after the first round hits —
// the cache's best case — on three shapes (-cpu 1, best of 4, ms a pass, same
// floors):
//
//	yelp/root            6.7   6.2   6.4   7.4  13.9
//	yelp/one_selector    5.8   5.7   5.8   6.5  13.0
//	movielens/root       4.6   5.0   4.4   5.5   7.3
//	hotels/root          4.5   5.2   4.9   5.6   7.2
//	hotels/one_selector  7.6   9.2   8.7  10.1  10.9
//
// (the three-selector arms, where nearly every group is tiny, read the same
// at every floor: yelp 11.8–15.5, movielens 8.3–9.3, hotels 9.6–10.6, and
// allocate a quarter less from 64 up). Even with every lookup a hit, 64 and
// 256 cost nothing against 0 that this resolves, 1 024 starts to (8–15% on
// the root and one-selector arms), and with it the cache's worst case is
// budget / floor entries, each a whole-schema accumulator, where it was
// unbounded in bytes. On Yelp (scale 0.25 or 1) that is 3 906 × 26.6 KB
// (Accumulator.Bytes of a recycled accumulator: 96 candidates, capacity
// included) ≈ 104 MB charged, and 3 906 × 28.7 KB ≈ 112 MB of heap (runtime
// HeapAlloc over 1 000 of them, size classes and headers included). 256 is
// the break-even of the arithmetic and the middle of the flat.
const cacheFloorRecords = 256

// NewTopMapsCache returns a cache budgeted by total cached record count
// (≤ 0 yields a cache that stores nothing but still counts misses).
func NewTopMapsCache(budgetRecords int) *TopMapsCache {
	return &TopMapsCache{
		budget:  budgetRecords,
		order:   list.New(),
		entries: make(map[string]*list.Element),
		recycle: func(acc *ratingmap.Accumulator) { accumulators.Put(acc) },
	}
}

// get returns the entry cached under key, if any, marking it most recently
// used and taking a reader on it: the caller reads its accumulator until it
// calls release.
func (c *TopMapsCache) get(key string) *topMapsCacheEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.order.MoveToFront(el)
	e := el.Value.(*topMapsCacheEntry)
	e.readers++
	return e
}

// release drops a reader that get or put took. The last reader of an
// evicted entry hands its accumulator back to the pool.
func (c *TopMapsCache) release(e *topMapsCacheEntry) {
	c.mu.Lock()
	e.readers--
	last := e.evicted && e.readers == 0
	c.mu.Unlock()
	if last {
		c.recycle(e.acc)
	}
}

// bypass counts a group that went past the cache: under the admission
// floor, so neither a lookup nor a miss.
func (c *TopMapsCache) bypass() {
	c.mu.Lock()
	c.bypassed++
	c.mu.Unlock()
}

// put admits a completed accumulator, evicting LRU entries until the
// record budget holds, and returns its entry with a reader taken for the
// caller, who releases it after finalize. It returns nil when it does not
// admit acc — an entry larger than the whole budget, or a key another call
// admitted first — and acc stays the caller's. An evicted entry nobody
// reads hands its accumulator back to the pool at once; one still read is
// marked, and its last release does. put counts the evictions under the
// lock that made them — Stats never shows entries gone but not yet counted
// — and returns how many there were and the bytes the cache now holds, for
// the metrics.
func (c *TopMapsCache) put(key string, acc *ratingmap.Accumulator, cost int) (e *topMapsCacheEntry, evicted int, bytes int64) {
	if c == nil {
		return nil, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget <= 0 || cost > c.budget {
		return nil, 0, c.bytes
	}
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return nil, 0, c.bytes
	}
	for c.used+cost > c.budget {
		back := c.order.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*topMapsCacheEntry)
		c.used -= ev.cost
		c.bytes -= int64(ev.bytes)
		delete(c.entries, ev.key)
		c.order.Remove(back)
		evicted++
		ev.evicted = true
		if ev.readers == 0 {
			c.recycle(ev.acc)
		}
	}
	c.evictions += int64(evicted)
	e = &topMapsCacheEntry{key: key, acc: acc, cost: cost, bytes: acc.Bytes(), readers: 1}
	c.entries[key] = c.order.PushFront(e)
	c.used += cost
	c.bytes += int64(e.bytes)
	return e, evicted, c.bytes
}

// CacheStats is a point-in-time snapshot of the cache, surfaced by the
// server's /debug/cache endpoint and by cmd/sdebench.
type CacheStats struct {
	Entries       int `json:"entries"`
	UsedRecords   int `json:"used_records"`
	BudgetRecords int `json:"budget_records"`
	// Bytes is what the entries' accumulators hold (Accumulator.Bytes),
	// the number the record budget does not bound by itself.
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Bypassed counts groups under the admission floor: scanned without a
	// lookup, so neither hits nor misses.
	Bypassed int64 `json:"bypassed"`
}

// HitRate returns hits / (hits + misses), or 0 before any lookup. A
// bypassed group is not a lookup.
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
		Bytes:         c.bytes,
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Bypassed:      c.bypassed,
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
