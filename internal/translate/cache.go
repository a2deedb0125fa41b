package translate

import (
	"fmt"
	"sync"
	"sync/atomic"

	"aalwines/internal/network"
	"aalwines/internal/obs"
	"aalwines/internal/pds"
	"aalwines/internal/query"
	"aalwines/internal/weight"
)

// Cache memoizes translated systems for one network so that many
// verification runs (typically a batch sweep) build each pushdown system
// once and share it read-only. An eager System is immutable — Build
// freezes the PDS rule indexes — and is shared as is. An on-the-fly System
// is handed out per Get with a private rule store over the shared
// generator. The cached pristine initial automaton is handed out as a
// Clone per run, so concurrent saturations never touch shared mutable
// state.
//
// Entries are keyed by (compiled query, direction, weight spec, reduction
// flag, product form). The compiled query is keyed by pointer identity:
// callers that want textual deduplication (the batch runner does) parse
// each distinct query text once and reuse the *query.Query. The failure bound k is part of the
// compiled query, so it needs no separate key component. Options with a
// Dist function are not keyable (functions have no identity); Get then
// builds fresh without caching.
type Cache struct {
	net    *network.Network
	misses atomic.Int64
	gets   atomic.Int64

	// Process-wide counters labeled by network name, so /metrics separates
	// cache effectiveness per registered network.
	obsGets, obsHits, obsMisses *obs.Counter
	obsEntries                  *obs.Gauge

	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
}

type cacheKey struct {
	q            *query.Query
	mode         Mode
	spec         string // rendering of the weight spec; "" = unweighted
	noReductions bool
	onTheFly     bool
}

type cacheEntry struct {
	once sync.Once
	sys  *System
	init *pds.Auto // pristine, weight-normalised; cloned per run
}

// NewCache returns an empty cache bound to the network.
func NewCache(net *network.Network) *Cache {
	label := `{network="` + obs.SanitizeLabel(net.Name) + `"}`
	return &Cache{
		net:        net,
		entries:    make(map[cacheKey]*cacheEntry),
		obsGets:    obs.GetCounter("translate_cache_gets_total" + label),
		obsHits:    obs.GetCounter("translate_cache_hits_total" + label),
		obsMisses:  obs.GetCounter("translate_cache_misses_total" + label),
		obsEntries: obs.GetGauge("translate_cache_entries" + label),
	}
}

// Get returns the translated system for (q, opts) and a fresh initial
// automaton for it, building and memoizing on first use; ok is false when
// net is not the network the cache is bound to. The returned System must
// be treated as read-only, except that saturating an on-the-fly one
// replaces its private rule store; the automaton is private to the caller.
// Concurrent callers with the same key block until the single build
// completes.
func (c *Cache) Get(net *network.Network, q *query.Query, opts Options) (*System, *pds.Auto, bool) {
	if net != c.net {
		return nil, nil, false
	}
	c.gets.Add(1)
	c.obsGets.Inc()
	if opts.Dist != nil {
		c.misses.Add(1)
		c.obsMisses.Inc()
		sys := Build(net, q, opts)
		return sys, sys.InitAuto(), true
	}
	key := cacheKey{q: q, mode: opts.Mode, spec: specString(opts.Spec), noReductions: opts.NoReductions, onTheFly: opts.Slice}
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &cacheEntry{}
		c.entries[key] = e
		c.obsEntries.Set(int64(len(c.entries)))
	}
	c.mu.Unlock()
	built := false
	e.once.Do(func() {
		built = true
		c.misses.Add(1)
		c.obsMisses.Inc()
		e.sys = Build(c.net, q, opts)
		e.init = e.sys.InitAuto()
		// Pre-normalise weights so saturating a clone never rewrites a
		// witness record shared with the pristine automaton.
		e.init.NormalizeWeights(e.sys.Dim)
	})
	if !built {
		// A hit is a get served from an existing entry — including one that
		// blocked on another goroutine's in-flight build.
		c.obsHits.Inc()
	}
	return e.sys.share(), e.init.Clone(), true
}

// CacheStats summarises cache effectiveness. Hits = Gets - Misses; a get
// that blocked on another goroutine's in-flight build counts as a hit.
type CacheStats struct {
	Entries int
	Gets    int64
	Misses  int64
	Hits    int64
}

// HitRate returns Hits/Gets, or 0 before the first get.
func (s CacheStats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	gets, misses := c.gets.Load(), c.misses.Load()
	return CacheStats{Entries: n, Gets: gets, Misses: misses, Hits: gets - misses}
}

func specString(s weight.Spec) string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf("%v", s)
}
