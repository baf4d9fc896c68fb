package engine

import (
	"container/list"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"subdex/internal/obs"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

func TestTopMapsCacheLRUAndBudget(t *testing.T) {
	c := NewTopMapsCache(100)
	// Each entry its own placeholder: an evicted entry's accumulator goes to
	// the pool, and one accumulator under two keys would go there twice.
	// The cache never reads one.
	put := func(key string, cost int) (*topMapsCacheEntry, int) {
		e, ev, _ := c.put(key, &ratingmap.Accumulator{}, cost)
		if e != nil {
			c.release(e)
		}
		return e, ev
	}
	hit := func(key string) bool {
		e := c.get(key)
		if e != nil {
			c.release(e)
		}
		return e != nil
	}

	if hit("a") {
		t.Fatal("empty cache hit")
	}
	put("a", 40)
	put("b", 40)
	if st := c.Stats(); st.Entries != 2 || st.UsedRecords != 80 {
		t.Fatalf("stats %+v", st)
	}
	// Touch a so b becomes LRU, then overflow: b must go first.
	if !hit("a") {
		t.Fatal("want hit on a")
	}
	if _, ev := put("c", 40); ev != 1 {
		t.Fatalf("evicted %d, want 1", ev)
	}
	// The count lands under the lock that evicted: no window in which
	// Stats shows the entry gone and Evictions not yet bumped.
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats after eviction %+v, want 2 entries and 1 eviction", st)
	}
	if hit("b") {
		t.Fatal("b should have been evicted")
	}
	if !hit("a") {
		t.Fatal("a should have survived (recently used)")
	}
	// A key admitted already is not admitted again: the second
	// accumulator stays its caller's.
	if e, _ := put("a", 40); e != nil {
		t.Fatal("a second put of a admitted it")
	}
	// Oversized entries are never admitted.
	if e, ev := put("huge", 101); e != nil || ev != 0 {
		t.Fatalf("oversized put admitted (%v) or evicted %d", e != nil, ev)
	}
	if hit("huge") {
		t.Fatal("oversized entry admitted")
	}
	c.Invalidate()
	if st := c.Stats(); st.Entries != 0 || st.UsedRecords != 0 {
		t.Fatalf("post-invalidate stats %+v", st)
	}
	if hit("a") {
		t.Fatal("hit after invalidate")
	}
}

func TestTopMapsCacheNilSafe(t *testing.T) {
	var c *TopMapsCache
	if c.get("x") != nil {
		t.Fatal("nil cache hit")
	}
	if e, _, _ := c.put("x", nil, 1); e != nil {
		t.Fatal("nil cache admitted")
	}
	c.Invalidate()
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil stats %+v", st)
	}
	if hr := (CacheStats{}).HitRate(); hr != 0 {
		t.Fatalf("zero hit rate = %g", hr)
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := buildRandomDB(t, rng, 5, 5, 50)
	group := wholeGroup(t, db)
	keys := allCandidates(db)
	u := ratingmap.DefaultUtilityConfig()

	base := cacheKey(group, keys, u)
	if base != cacheKey(group, keys, u) {
		t.Fatal("key not deterministic")
	}
	// Candidate order must not matter (set semantics).
	rev := append([]ratingmap.Key(nil), keys...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if base != cacheKey(group, rev, u) {
		t.Fatal("key depends on candidate order")
	}
	// A different candidate set must change the key.
	if base == cacheKey(group, keys[:len(keys)-1], u) {
		t.Fatal("key ignores candidate set")
	}
	// A different record subset must change the key.
	sub := &query.RatingGroup{Desc: group.Desc, Records: group.Records[:len(group.Records)-1],
		Reviewers: group.Reviewers, Items: group.Items}
	if base == cacheKey(sub, keys, u) {
		t.Fatal("key ignores record set")
	}
	// A different utility config must change the key.
	u2 := u
	u2.Peculiarity = ratingmap.PecKL
	if base == cacheKey(group, keys, u2) {
		t.Fatal("key ignores utility config")
	}
}

// TestCacheKeyNamesCandidateSet: the key names the candidate *set* — any
// order of it, nothing but it — beside the record *list* — every position
// of it, in order — and the description. The classes are pinned, not the
// hash that tells them apart.
func TestCacheKeyNamesCandidateSet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := buildRandomDB(t, rng, 8, 8, 200)
	whole := wholeGroup(t, db)
	keys := allCandidates(db)
	u := ratingmap.DefaultUtilityConfig()
	base := cacheKey(whole, keys, u)

	for round := 0; round < 20; round++ {
		shuffled := slices.Clone(keys)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := cacheKey(whole, shuffled, u); got != base {
			t.Fatalf("shuffle %d: key %q, want %q", round, got, base)
		}
	}
	extra := ratingmap.Key{Side: query.ItemSide, Attr: "weird \x00'\"é", Dim: 1}
	differs := func(label string, ks []ratingmap.Key) {
		t.Helper()
		if cacheKey(whole, ks, u) == base {
			t.Fatalf("%s: same key as the full candidate set", label)
		}
	}
	differs("one key added", append(slices.Clone(keys), extra))
	differs("one key repeated", append(slices.Clone(keys), keys[0]))
	differs("no keys", nil)
	for i, k := range keys {
		differs(fmt.Sprintf("key %d dropped", i), slices.Delete(slices.Clone(keys), i, i+1))
		for field, changed := range map[string]ratingmap.Key{
			"side": {Side: 1 - k.Side, Attr: k.Attr, Dim: k.Dim},
			"attr": {Side: k.Side, Attr: k.Attr + "x", Dim: k.Dim},
			"dim":  {Side: k.Side, Attr: k.Attr, Dim: k.Dim + 1},
		} {
			ks := slices.Clone(keys)
			ks[i] = changed
			differs(fmt.Sprintf("key %d changed in %s", i, field), ks)
		}
	}

	// Sets a plain sum of FNV hashes, or one hash over the keys run
	// together, would confuse.
	pair := func(a, b string, da, db int) []ratingmap.Key {
		return []ratingmap.Key{{Attr: a, Dim: da}, {Attr: b, Dim: db}}
	}
	for _, c := range []struct {
		label string
		x, y  []ratingmap.Key
	}{
		{"attribute boundary moved", pair("a", "bc", 0, 0), pair("ab", "c", 0, 0)},
		{"last bytes swapped", pair("ab", "cd", 0, 0), pair("ad", "cb", 0, 0)},
		{"dimensions swapped", pair("a", "b", 0, 1), pair("a", "b", 1, 0)},
	} {
		if cacheKey(whole, c.x, u) == cacheKey(whole, c.y, u) {
			t.Fatalf("%s: %v and %v share a key", c.label, c.x, c.y)
		}
	}

	// The same set on two record lists, and on two descriptions.
	bound := query.MustDescription(query.Selector{Side: query.ItemSide, Attr: "weird \x00'\"é", Value: "v"})
	for _, g := range []*query.RatingGroup{
		{Desc: whole.Desc},
		{Desc: whole.Desc, Records: whole.Records[3:40]},
		{Desc: bound, Records: whole.Records},
	} {
		if cacheKey(g, keys, u) == base {
			t.Fatalf("group %q with %d records shares the whole group's key", g.Desc, len(g.Records))
		}
	}

	// Record lists one description can arrive with, which must not share
	// a key: positions with four distinct bytes each, so that no byte of a
	// position is left out, in lists of odd and even length, so that both
	// the paired positions and an odd list's last are covered.
	for _, records := range [][]int32{
		{0x01020304, 0x05060708, 0x090a0b0c, 0x0d0e0f10, 1<<31 - 1},
		{0x01020304, 0x05060708, 0x090a0b0c, 0x0d0e0f10},
	} {
		key := func(rs []int32) string {
			return cacheKey(&query.RatingGroup{Desc: bound, Records: rs}, keys, u)
		}
		base := key(records)
		if key(slices.Clone(records)) != base {
			t.Fatal("equal record lists, different keys")
		}
		recordsDiffer := func(label string, rs []int32) {
			t.Helper()
			if key(rs) == base {
				t.Fatalf("%d records, %s: same key", len(records), label)
			}
		}
		for p := range records {
			for shift := 0; shift < 32; shift += 8 {
				rs := slices.Clone(records)
				rs[p] ^= 1 << shift
				recordsDiffer(fmt.Sprintf("byte %d of position %d changed", shift/8, p), rs)
			}
			if p > 0 {
				rs := slices.Clone(records)
				rs[p-1], rs[p] = rs[p], rs[p-1]
				recordsDiffer(fmt.Sprintf("positions %d and %d swapped", p-1, p), rs)
			}
			recordsDiffer(fmt.Sprintf("position %d dropped", p), slices.Delete(slices.Clone(records), p, p+1))
		}
		recordsDiffer("a zero appended", append(slices.Clone(records), 0))
		// A sampled list against the full selection it was drawn from.
		recordsDiffer("every other position", []int32{records[0], records[2]})
		recordsDiffer("its first half", records[:len(records)/2])
	}
}

// TestCacheKeySinglePositionPerturbations: a 2 000-record list — the
// recommendation pass's sample size — and 10 000 copies of it with one
// position changed have 10 001 distinct keys.
func TestCacheKeySinglePositionPerturbations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, table = 2000, 200500
	records := make([]int32, 0, n)
	for _, r := range rng.Perm(table)[:n] {
		records = append(records, int32(r))
	}
	slices.Sort(records)
	keys := []ratingmap.Key{{Side: query.ItemSide, Attr: "city"}}
	u := ratingmap.DefaultUtilityConfig()
	seen := map[string]string{cacheKey(&query.RatingGroup{Records: records}, keys, u): "the list itself"}
	changed := make(map[[2]int32]bool)
	for len(changed) < 10000 {
		p, to := int32(rng.Intn(n)), int32(rng.Intn(table))
		if to == records[p] || changed[[2]int32{p, to}] {
			continue
		}
		changed[[2]int32{p, to}] = true
		rs := slices.Clone(records)
		rs[p] = to
		label := fmt.Sprintf("position %d set to %d", p, to)
		key := cacheKey(&query.RatingGroup{Records: rs}, keys, u)
		if other, dup := seen[key]; dup {
			t.Fatalf("%s and %s share a key", label, other)
		}
		seen[key] = label
	}
}

// TestCacheMetricsWired checks the subdex_engine_cache_* counters move
// with cache traffic.
func TestCacheMetricsWired(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := buildRandomDB(t, rng, 10, 10, 500)
	group := wholeGroup(t, db)
	keys := allCandidates(db)

	reg := obs.NewRegistry()
	g := NewGenerator(db)
	g.Metrics = NewMetrics(reg)
	g.Cache = NewTopMapsCache(1 << 20)

	cfg := DefaultConfig()
	cfg.Pruning = PruneNone
	for i := 0; i < 3; i++ {
		if _, err := g.TopMapsCtx(context.Background(), group, keys, ratingmap.NewSeenSet(), 4, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.Metrics.CacheMisses.Value(); got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
	if got := g.Metrics.CacheHits.Value(); got != 2 {
		t.Fatalf("hits = %d, want 2", got)
	}
	st := g.Cache.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
	if hr := st.HitRate(); hr < 0.66 || hr > 0.67 {
		t.Fatalf("hit rate %g, want 2/3", hr)
	}
}

// TestCacheEvictionMetrics drives the record budget over capacity with
// groups above the admission floor and checks that evictions are counted on
// both the cache and the metrics registry, and that the cache's bytes — the
// sum of what its entries' accumulators hold — follow every admission,
// eviction and Invalidate, on Stats and on the gauge alike.
func TestCacheEvictionMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := buildRandomDB(t, rng, 10, 10, 3000)
	qe, err := query.NewEngine(db)
	if err != nil {
		t.Fatal(err)
	}
	keys := allCandidates(db)
	entryBytes := int64((&ratingmap.Builder{DB: db}).NewAccumulator(query.Description{}, keys).Bytes())
	if entryBytes == 0 {
		t.Fatal("an accumulator over every candidate holds no bytes")
	}

	reg := obs.NewRegistry()
	g := NewGenerator(db)
	g.Metrics = NewMetrics(reg)
	// Budget fits one whole-database group only; distinct sub-groups
	// plus the root must evict.
	g.Cache = NewTopMapsCache(db.Ratings.Len() + 10)

	cfg := DefaultConfig()
	cfg.Pruning = PruneNone
	descs := []query.Description{
		{},
		query.MustDescription(query.Selector{Side: query.ReviewerSide, Attr: "age", Value: "young"}),
		query.MustDescription(query.Selector{Side: query.ReviewerSide, Attr: "age", Value: "old"}),
		query.MustDescription(query.Selector{Side: query.ReviewerSide, Attr: "age", Value: "mid"}),
	}
	for _, d := range descs {
		group, err := qe.Materialize(d)
		if err != nil {
			t.Fatal(err)
		}
		if group.Len() < cacheFloorRecords {
			t.Fatalf("%s has %d records, under the admission floor: the test needs cacheable groups", d, group.Len())
		}
		if _, err := g.TopMapsCtx(context.Background(), group, keys, ratingmap.NewSeenSet(), 4, cfg); err != nil {
			t.Fatal(err)
		}
		// An entry's accumulator came from the pool, so it holds at least the
		// whole schema's capacity, and more if a larger database used it
		// before: the cache is charged what each one holds.
		st := g.Cache.Stats()
		want := int64(0)
		for _, el := range g.Cache.entries {
			held := int64(el.Value.(*topMapsCacheEntry).acc.Bytes())
			if held < entryBytes {
				t.Fatalf("after %s: an entry holds %d bytes, under the whole schema's %d", d, held, entryBytes)
			}
			want += held
		}
		if st.Bytes != want || g.Metrics.CacheBytes.Value() != float64(want) {
			t.Fatalf("after %s: %d entries are charged %d bytes (gauge %v), their accumulators hold %d", d, st.Entries, st.Bytes, g.Metrics.CacheBytes.Value(), want)
		}
	}
	st := g.Cache.Stats()
	if st.Evictions == 0 || st.Entries == 0 {
		t.Fatalf("expected evictions and survivors, stats %+v", st)
	}
	if got := g.Metrics.CacheEvictions.Value(); got != st.Evictions {
		t.Fatalf("subdex_engine_cache_evictions_total = %d, cache evictions %d", got, st.Evictions)
	}
	if st.UsedRecords > st.BudgetRecords {
		t.Fatalf("budget overrun: %+v", st)
	}
	if st.Bypassed != 0 || g.Metrics.CacheBypass.Value() != 0 {
		t.Fatalf("groups above the floor were counted as bypassed: %+v", st)
	}
	g.InvalidateCache()
	if st := g.Cache.Stats(); st.Entries != 0 || st.Bytes != 0 || g.Metrics.CacheBytes.Value() != 0 {
		t.Fatalf("after InvalidateCache: %+v, gauge %v", st, g.Metrics.CacheBytes.Value())
	}
}

// TestSmallGroupsBypassTheCache: a group under the admission floor is not a
// lookup — no key, no entry, neither hit nor miss — and says so in its
// profile, its span and the bypass counters; its one stride still runs the
// PhaseHook once; and what it returns is what a generator without a cache
// returns, call after call through the recycled accumulator — different
// groups, different candidate sets — without a later call reaching into an
// earlier call's maps. A group of exactly the floor is a lookup again.
func TestSmallGroupsBypassTheCache(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	db := buildRandomDB(t, rng, 20, 15, 1200)
	whole := wholeGroup(t, db)
	keys := allCandidates(db)

	reg := obs.NewRegistry()
	g := NewGenerator(db)
	g.Metrics = NewMetrics(reg)
	g.Cache = NewTopMapsCache(1 << 20)
	plain := NewGenerator(db) // no cache
	cfg := DefaultConfig()
	cfg.Pruning = PruneNone
	hooks := 0
	hooked := cfg
	hooked.PhaseHook = func(context.Context, int) { hooks++ }

	type call struct {
		res    *Result
		digest string
	}
	var calls []call
	seen := ratingmap.NewSeenSet()
	for i, c := range []struct {
		lo, hi int
		keys   []ratingmap.Key
	}{
		{0, cacheFloorRecords - 1, keys},
		{100, 130, keys},                 // a short list after a long one
		{400, 400, keys},                 // empty
		{7, 200, keys[2:5]},              // fewer candidates
		{300, 300 + 90, keys},            // and all of them again
		{0, cacheFloorRecords - 1, keys}, // the first group once more: still no hit
	} {
		group := &query.RatingGroup{Desc: whole.Desc, Records: whole.Records[c.lo:c.hi]}
		sink := obs.NewRingSink(1)
		hooks = 0
		res, err := g.TopMapsCtx(obs.WithSink(context.Background(), sink), group, c.keys, seen, 4, hooked)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.TopMapsCtx(context.Background(), group, c.keys, seen, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := ratingmap.DigestMaps(res.Maps); got != ratingmap.DigestMaps(want.Maps) || !slices.Equal(res.Utilities, want.Utilities) {
			t.Fatalf("call %d: the bypassed result differs from the cache-less generator's", i)
		}
		if res.Profile.Cache != "bypass" || want.Profile.Cache != "off" {
			t.Fatalf("call %d: Profile.Cache = %q (cache-less: %q), want bypass and off", i, res.Profile.Cache, want.Profile.Cache)
		}
		if got := sink.Snapshot("", 0)[0].Attrs["cache"]; got != "bypass" {
			t.Fatalf("call %d: engine.topmaps span says cache = %v, want bypass", i, got)
		}
		if hooks != 1 || len(res.Profile.Phases) != 1 || res.Profile.RecordsScanned != len(group.Records) {
			t.Fatalf("call %d: %d hook calls, %d strides, %d records scanned; want the group's one stride", i, hooks, len(res.Profile.Phases), res.Profile.RecordsScanned)
		}
		calls = append(calls, call{res, ratingmap.DigestMaps(res.Maps)})
		for _, rm := range res.Maps[:min(1, len(res.Maps))] {
			seen.Add(rm) // later calls finalize against a different history
		}
	}
	for i, c := range calls {
		if ratingmap.DigestMaps(c.res.Maps) != c.digest {
			t.Fatalf("call %d's maps changed after it returned: they alias the recycled accumulator", i)
		}
	}
	st := g.Cache.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.Hits+st.Misses != 0 || st.Bypassed != int64(len(calls)) {
		t.Fatalf("after %d groups under the floor: %+v", len(calls), st)
	}
	if got := g.Metrics.CacheBypass.Value(); got != st.Bypassed || g.Metrics.CacheMisses.Value() != 0 {
		t.Fatalf("metrics: bypass %d (cache %d), misses %d", got, st.Bypassed, g.Metrics.CacheMisses.Value())
	}
	if hr := st.HitRate(); hr != 0 {
		t.Fatalf("hit rate %g over no lookups", hr)
	}

	atFloor := &query.RatingGroup{Desc: whole.Desc, Records: whole.Records[:cacheFloorRecords]}
	for _, want := range []string{"miss", "hit"} {
		res, err := g.TopMapsCtx(context.Background(), atFloor, keys, seen, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Profile.Cache != want {
			t.Fatalf("a group of exactly the floor: cache = %q, want %q", res.Profile.Cache, want)
		}
	}
	if st := g.Cache.Stats(); st.Entries != 1 || st.Bypassed != int64(len(calls)) {
		t.Fatalf("after a group at the floor: %+v", st)
	}
}

// TestCacheConcurrentTopMaps hammers one shared cache from many
// goroutines (the server's concurrent-sessions shape); run under -race
// this proves the published accumulators are safely shared read-only.
func TestCacheConcurrentTopMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	db := buildRandomDB(t, rng, 20, 15, 1500)
	group := wholeGroup(t, db)
	keys := allCandidates(db)

	g := NewGenerator(db)
	g.Cache = NewTopMapsCache(1 << 20)
	cfg := DefaultConfig()
	cfg.Pruning = PruneNone
	cfg.Workers = 2

	want, err := g.TopMapsCtx(context.Background(), group, keys, ratingmap.NewSeenSet(), 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest := ratingmap.DigestMaps(want.Maps)

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := g.TopMapsCtx(context.Background(), group, keys, ratingmap.NewSeenSet(), 5, cfg)
				if err != nil {
					errs <- err
					return
				}
				if ratingmap.DigestMaps(res.Maps) != wantDigest {
					t.Error("concurrent result differs")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := g.Cache.Stats(); st.Hits < 40 {
		t.Fatalf("expected ≥40 hits, stats %+v", st)
	}
}

// TestEvictedAccumulatorWaitsForItsReaders: hits on a cached accumulator
// are held inside finalize — the keep gate runs there, after ranking and
// before any map is snapshotted — while puts evict their entry and misses
// draw accumulators from the pool, among them those other evictions hand
// back. The cache must hand the hits' accumulator back only once the last
// of them is done: while they read, no entry holds it and it has not been
// recycled; every hit and every miss returns the uncached run's maps; after
// the last release it has been recycled exactly once.
func TestEvictedAccumulatorWaitsForItsReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := buildRandomDB(t, rng, 10, 10, 3000)
	qe, err := query.NewEngine(db)
	if err != nil {
		t.Fatal(err)
	}
	keys := allCandidates(db)
	cfg := DefaultConfig()
	cfg.Pruning = PruneNone
	ctx := context.Background()
	root, err := qe.Materialize(query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	// Every value group of the age and cuisine attributes over the floor:
	// together they hold more than twice the budget, so the misses below
	// evict one another round after round.
	var others []*query.RatingGroup
	total := 0
	for _, attr := range []struct {
		side query.Side
		name string
	}{{query.ReviewerSide, "age"}, {query.ItemSide, "cuisine"}} {
		values, err := qe.AttributeValues(attr.side, attr.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range values {
			group, err := qe.Materialize(query.MustDescription(query.Selector{Side: attr.side, Attr: attr.name, Value: v}))
			if err != nil {
				t.Fatal(err)
			}
			if group.Len() >= cacheFloorRecords {
				others = append(others, group)
				total += group.Len()
			}
		}
	}
	if total <= 2*root.Len() {
		t.Fatalf("the other groups hold %d records, not more than twice the root's %d", total, root.Len())
	}
	plain := NewGenerator(db)
	uncached := func(group *query.RatingGroup) string {
		res, err := plain.TopMapsCtx(ctx, group, keys, ratingmap.NewSeenSet(), 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ratingmap.DigestMaps(res.Maps)
	}

	g := NewGenerator(db)
	g.Cache = NewTopMapsCache(root.Len()) // the root alone: admitting anything else evicts it
	var mu sync.Mutex
	var recycled []*ratingmap.Accumulator
	g.Cache.recycle = func(acc *ratingmap.Accumulator) {
		mu.Lock()
		recycled = append(recycled, acc)
		mu.Unlock()
		accumulators.Put(acc)
	}
	recycledAs := func(acc *ratingmap.Accumulator) (times, all int) {
		mu.Lock()
		defer mu.Unlock()
		for _, a := range recycled {
			if a == acc {
				times++
			}
		}
		return times, len(recycled)
	}
	if _, err := g.TopMapsCtx(ctx, root, keys, ratingmap.NewSeenSet(), 4, cfg); err != nil {
		t.Fatal(err)
	}
	rootKey := cacheKey(root, keys, cfg.Utility)
	g.Cache.mu.Lock()
	rootEntry := g.Cache.entries[rootKey].Value.(*topMapsCacheEntry)
	g.Cache.mu.Unlock()
	rootAcc := rootEntry.acc

	const hits = 4
	inFinalize, resume := make(chan struct{}), make(chan struct{})
	digests := make([]string, hits)
	var wg sync.WaitGroup
	for i := 0; i < hits; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := new(Result)
			err := g.TopMapsIfCtx(ctx, res, root, keys, ratingmap.NewSeenSet(), 4, cfg, func([]float64) bool {
				inFinalize <- struct{}{}
				<-resume
				return true
			})
			if err != nil {
				t.Error(err)
				return
			}
			if res.Profile.Cache != "hit" {
				t.Errorf("hit %d: cache %q", i, res.Profile.Cache)
			}
			digests[i] = ratingmap.DigestMaps(res.Maps)
		}()
	}
	for i := 0; i < hits; i++ {
		<-inFinalize
	}

	// Every hit is inside finalize, reading rootAcc.
	for round := 0; round < 3; round++ {
		for _, group := range others {
			res, err := g.TopMapsCtx(ctx, group, keys, ratingmap.NewSeenSet(), 4, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := ratingmap.DigestMaps(res.Maps), uncached(group); got != want {
				t.Fatalf("round %d, %s: maps differ from the uncached run's", round, group.Desc)
			}
		}
	}
	g.Cache.mu.Lock()
	_, cached := g.Cache.entries[rootKey]
	evicted, readers := rootEntry.evicted, rootEntry.readers
	for _, el := range g.Cache.entries {
		if el.Value.(*topMapsCacheEntry).acc == rootAcc {
			t.Error("a miss was admitted in the evicted root's accumulator while hits still read it")
		}
	}
	g.Cache.mu.Unlock()
	if cached || !evicted || readers != hits {
		t.Fatalf("root entry: cached %v, evicted %v, %d readers; want evicted with %d", cached, evicted, readers, hits)
	}
	if times, all := recycledAs(rootAcc); times != 0 || all == 0 {
		t.Fatalf("while hits read the root: it was recycled %d times, of %d recycled; want 0 of some", times, all)
	}

	close(resume)
	wg.Wait()
	want := uncached(root)
	for i, got := range digests {
		if got != want {
			t.Fatalf("hit %d: maps differ from the uncached run's", i)
		}
	}
	if times, _ := recycledAs(rootAcc); times != 1 || rootEntry.readers != 0 {
		t.Fatalf("after the last hit: the root's accumulator recycled %d times, %d readers left; want once, none", times, rootEntry.readers)
	}
}

// TestPrunedRunNotCached pins the admission rule from the other side: a
// group above the phase threshold takes the pruning loop and, having
// pruned, must NOT populate the cache (its histograms no longer cover
// every candidate). The cacheable counterpart — PruneNone, then a hit —
// is a row of TestUnifiedLoop.
func TestPrunedRunNotCached(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := buildRandomDB(t, rng, 40, 30, 9000)
	group := wholeGroup(t, db)
	keys := allCandidates(db)

	g := NewGenerator(db)
	g.Cache = NewTopMapsCache(1 << 22)
	cfg := DefaultConfig()
	cfg.MinPhaseRecords = 1000
	res, err := g.TopMapsCtx(context.Background(), group, keys, ratingmap.NewSeenSet(), 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PrunedCI+res.PrunedMAB == 0 {
		t.Fatal("the run pruned nothing; the test needs a pruned scan")
	}
	if st := g.Cache.Stats(); st.Entries != 0 || st.Misses != 1 {
		t.Fatalf("pruned run populated the cache: %+v", st)
	}
}

var sinkKey string

// BenchmarkCacheKey is one key over Yelp's 92 candidates for a record list
// of the recommendation pass's sample size, of scan_sweep's mean group and
// of its whole table: every cold step builds one before it scans, for a
// lookup that cannot hit. There is no arm under 256 records because no such
// group is keyed any more: a key is ≈ 1 µs of description and digest however
// few the records, part of the ≈ 9 µs an entry costs to make, key and admit,
// which a group that small cannot earn back — cacheFloorRecords, whose
// comment holds the sweep (guided_walk and BenchmarkRecommendPass on three
// shapes, floors 0 / 64 / 256 / 1 024 / the sample cap).
//
//	go test ./internal/engine -run '^$' -bench CacheKey -benchmem
func BenchmarkCacheKey(b *testing.B) {
	keys := make([]ratingmap.Key, 92)
	for k := range keys {
		keys[k] = ratingmap.Key{Side: query.Side(k % 2), Attr: fmt.Sprintf("attribute_%d", k/8), Dim: k % 4}
	}
	desc := query.MustDescription(query.Selector{Side: query.ReviewerSide, Attr: "gender", Value: "female"})
	u := ratingmap.DefaultUtilityConfig()
	for _, n := range []int{2000, 46000, 200500} {
		records := make([]int32, n)
		for r := range records {
			records[r] = int32(r) * 3
		}
		group := &query.RatingGroup{Desc: desc, Records: records}
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkKey = cacheKey(group, keys, u)
			}
		})
	}
}

// Invalidate drops every entry (and resets nothing else: hit/miss
// counters keep accumulating).
func (c *TopMapsCache) Invalidate() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.entries = make(map[string]*list.Element)
	c.used, c.bytes = 0, 0
}

// InvalidateCache drops every cached accumulator (TopMapsCache.Invalidate)
// and brings the cache-bytes gauge down with them. Nil-safe like the cache.
func (g *Generator) InvalidateCache() {
	g.Cache.Invalidate()
	g.Metrics.CacheBytes.Set(0)
}
