package query

import (
	"container/list"
	"strconv"
)

// Group cache. Consecutive steps (and consecutive simulated subjects)
// revisit selections, and a recommendation pass materializes the displayed
// group once more plus its roll-ups (the displayed group without one
// selector) and buckets them into the partitions its other candidates'
// groups are read from; caching whole rating groups and those partitions
// avoids the repeated record scans, in the spirit of the statistics-reuse
// frameworks the paper cites (Data Canopy [57], the caching of [18]).
// Sessions start at the root, and every one-selector step's roll-up is the
// root, so the same partitions are asked for pass after pass and session
// after session. Both kinds of entry live in one LRU under one budget,
// charged in bytes for what they hold, and the least-recently-used entries
// are evicted first.

// groupCache is an LRU keyed by description (a group) or by description,
// attribute and bound (a partition), with a byte budget.
type groupCache struct {
	budget  int
	used    int
	order   *list.List // front = most recent; values are *cacheEntry
	entries map[string]*list.Element
}

// cacheEntry is one cached group or partition — exactly one of the two is
// set — and the bytes it is charged.
type cacheEntry struct {
	key   string
	group *RatingGroup
	part  *Partition
	bytes int
}

// groupEntry charges a group for its records and both entity bitsets: an
// empty group still holds two bitsets over the entity tables.
func groupEntry(key string, g *RatingGroup) *cacheEntry {
	return &cacheEntry{key: key, group: g, bytes: 4*len(g.Records) + 8*(len(g.Reviewers.words)+len(g.Items.words))}
}

// partitionEntry charges a partition for its records and bucket offsets.
func partitionEntry(key string, p *Partition) *cacheEntry {
	return &cacheEntry{key: key, part: p, bytes: 4*len(p.records) + 8*len(p.offsets)}
}

// partitionKey names Partition(Materialize(src).Records, side, attr, n).
// No description's key starts with \x02 (one starts with a side's digit, or
// is empty), so a partition never shares a key with a group; the fields
// before the description are each NUL- or \x02-terminated, the attribute
// escaped as in a description's key. The key is written into one buffer,
// on the stack for keys up to its size, so a lookup allocates only the
// string.
func partitionKey(src Description, side Side, attr string, n int) string {
	var buf [128]byte
	b := append(buf[:0], 0x02)
	b = strconv.AppendInt(b, int64(side), 10)
	b = appendKeyPart(append(b, 0x00), attr)
	b = strconv.AppendInt(append(b, 0x00), int64(max(n, 0)), 10)
	return string(src.appendKey(append(b, 0x02)))
}

func newGroupCache(budget int) *groupCache {
	return &groupCache{budget: budget, order: list.New(), entries: make(map[string]*list.Element)}
}

func (c *groupCache) get(key string) (*cacheEntry, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

func (c *groupCache) put(en *cacheEntry) {
	if en.bytes > c.budget {
		return // larger than the whole budget: never cache
	}
	if el, ok := c.entries[en.key]; ok {
		c.order.MoveToFront(el)
		return
	}
	for c.used+en.bytes > c.budget {
		back := c.order.Back()
		ev := back.Value.(*cacheEntry)
		c.used -= ev.bytes
		delete(c.entries, ev.key)
		c.order.Remove(back)
	}
	c.entries[en.key] = c.order.PushFront(en)
	c.used += en.bytes
}

// EnableGroupCache turns on group and partition caching with the given
// budget in bytes (≤0 disables). Cached groups and partitions are shared
// and must be treated as immutable by callers — the engine's own paths
// never mutate a materialized group, and a partition's buckets are handed
// out with their capacity clipped.
func (e *Engine) EnableGroupCache(budgetBytes int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if budgetBytes <= 0 {
		e.groups = nil
		return
	}
	e.groups = newGroupCache(budgetBytes)
}

// cached returns the entry under key, or nil when there is none or no cache.
func (e *Engine) cached(key string) *cacheEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.groups == nil {
		return nil
	}
	en, _ := e.groups.get(key)
	return en
}

// keep offers a freshly built entry to the cache. Two sessions may build
// one entry at once; the first to arrive is kept, and the two are equal.
func (e *Engine) keep(en *cacheEntry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.groups != nil {
		e.groups.put(en)
	}
}

// MaterializeCached is Materialize that also reports whether the group was
// found in the group cache (true) or built (false).
func (e *Engine) MaterializeCached(d Description) (*RatingGroup, bool, error) {
	key := d.Key()
	if en := e.cached(key); en != nil {
		return en.group, true, nil
	}
	g, err := e.materialize(d)
	if err != nil {
		return nil, false, err
	}
	e.keep(groupEntry(key, g))
	return g, false, nil
}

// PartitionCached is Partition memoized in the group cache, where it is
// keyed by the description the records are of: records must be
// Materialize(src).Records — only then is a partition built by one caller
// the one another caller asks for. It also reports whether the partition
// was found (true) or built (false).
func (e *Engine) PartitionCached(src Description, records []int32, side Side, attr string, n int) (*Partition, bool, error) {
	key := partitionKey(src, side, attr, n)
	if en := e.cached(key); en != nil {
		return en.part, true, nil
	}
	p, err := e.Partition(records, side, attr, n)
	if err != nil {
		return nil, false, err
	}
	e.keep(partitionEntry(key, p))
	return p, false, nil
}
