package query

import "container/list"

// Group-materialization cache. Consecutive steps (and consecutive simulated
// subjects) revisit selections, and a recommendation pass materializes the
// displayed group once more plus its roll-ups (the displayed group without
// one selector); caching whole rating groups avoids those repeated record
// scans, in the spirit of the statistics-reuse frameworks the paper cites
// (Data Canopy [57], the caching of [18]). The pass's other candidates are
// derived from these groups by Partition and never enter the cache. The
// cache is budgeted by total cached record count and evicts
// least-recently-used groups.

// groupCache is an LRU keyed by description with a record-count budget.
type groupCache struct {
	budget  int
	used    int
	order   *list.List // front = most recent; values are *cacheEntry
	entries map[string]*list.Element
}

type cacheEntry struct {
	key   string
	group *RatingGroup
}

func newGroupCache(budget int) *groupCache {
	return &groupCache{budget: budget, order: list.New(), entries: make(map[string]*list.Element)}
}

func (c *groupCache) get(key string) (*RatingGroup, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).group, true
}

func (c *groupCache) put(key string, g *RatingGroup) {
	if c.budget <= 0 {
		return
	}
	cost := len(g.Records)
	if cost > c.budget {
		return // singleton larger than the whole budget: never cache
	}
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	for c.used+cost > c.budget {
		back := c.order.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*cacheEntry)
		c.used -= len(ev.group.Records)
		delete(c.entries, ev.key)
		c.order.Remove(back)
	}
	el := c.order.PushFront(&cacheEntry{key: key, group: g})
	c.entries[key] = el
	c.used += cost
}

// EnableGroupCache turns on materialization caching with the given budget
// (total cached rating-record count; ≤0 disables). Cached groups are shared
// and must be treated as immutable by callers — the engine's own paths
// never mutate a materialized group.
func (e *Engine) EnableGroupCache(budgetRecords int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if budgetRecords <= 0 {
		e.groups = nil
		return
	}
	e.groups = newGroupCache(budgetRecords)
}

// MaterializeCached is Materialize that also reports whether the group was
// found in the group cache (true) or built (false).
func (e *Engine) MaterializeCached(d Description) (*RatingGroup, bool, error) {
	key := d.Key()
	e.mu.Lock()
	if e.groups != nil {
		if g, ok := e.groups.get(key); ok {
			e.mu.Unlock()
			return g, true, nil
		}
	}
	e.mu.Unlock()

	g, err := e.materialize(d)
	if err != nil {
		return nil, false, err
	}
	e.mu.Lock()
	if e.groups != nil {
		e.groups.put(key, g)
	}
	e.mu.Unlock()
	return g, false, nil
}
