package translate

import (
	"sync"
	"sync/atomic"

	"aalwines/internal/network"
	"aalwines/internal/obs"
	"aalwines/internal/pds"
	"aalwines/internal/query"
	"aalwines/internal/routing"
)

// Getter abstracts a translation cache for the engine: anything that can
// hand out a (shared, read-only) System plus a private initial automaton
// for a compiled query. Cache implements it for immutable networks,
// SessionCache for scenario overlays.
type Getter interface {
	// Net returns the network the cache currently serves; the engine only
	// consults the cache when this pointer matches the verified network.
	Net() *network.Network
	// Get returns the translated system and a fresh initial automaton.
	Get(q *query.Query, opts Options) (*System, *pds.Auto)
	// Stats reports cache effectiveness counters.
	Stats() CacheStats
}

var (
	_ Getter = (*Cache)(nil)
	_ Getter = (*SessionCache)(nil)
)

// ruleBlock is the relocatable form of the rules one routing-table key
// emits: chain states are stored relative to the block's first allocation
// (encoded as baseCnt+offset, which cannot collide with base control
// states), tags relative to the block's first Steps entry. Splicing a
// block into a new build reproduces exactly the rules, state ids and step
// tags a from-scratch build would emit for that key — provided the key's
// routing content is unchanged, which the caller guarantees via the
// version it looked the block up under.
type ruleBlock struct {
	rules     []pds.Rule
	steps     []StepInfo
	numStates int // chain states the block allocates
}

// BlockStore caches rule blocks for one (query, translate options) pair
// across incremental rebuilds of a mutating network. Blocks are keyed by
// (routing key, content version); versions that fall out of the retention
// window are evicted FIFO, so undoing a recent delta still hits.
type BlockStore struct {
	blocks map[routing.Key]*keyBlocks
}

// keyVersions bounds how many content versions of one routing key a store
// retains. Scenario sessions bounce between a handful of delta stacks
// (apply, inspect, undo); retaining a few versions makes undo free without
// letting an adversarial delta churn grow the store without bound.
const keyVersions = 8

type keyBlocks struct {
	vers []uint64
	blks []*ruleBlock
}

// NewBlockStore returns an empty store.
func NewBlockStore() *BlockStore {
	return &BlockStore{blocks: make(map[routing.Key]*keyBlocks)}
}

func (s *BlockStore) get(key routing.Key, ver uint64) *ruleBlock {
	kb := s.blocks[key]
	if kb == nil {
		return nil
	}
	for i, v := range kb.vers {
		if v == ver {
			return kb.blks[i]
		}
	}
	return nil
}

func (s *BlockStore) put(key routing.Key, ver uint64, blk *ruleBlock) {
	kb := s.blocks[key]
	if kb == nil {
		kb = &keyBlocks{}
		s.blocks[key] = kb
	}
	if len(kb.vers) >= keyVersions {
		kb.vers = append(kb.vers[:0], kb.vers[1:]...)
		kb.blks = append(kb.blks[:0], kb.blks[1:]...)
	}
	kb.vers = append(kb.vers, ver)
	kb.blks = append(kb.blks, blk)
}

// BuildStats reports how much of an incremental build was served from
// cached rule blocks.
type BuildStats struct {
	BlocksReused  int
	BlocksRebuilt int
}

// Sub returns the stats accumulated since an earlier snapshot — the
// per-flush delta of a session's cumulative BlockStats.
func (st BuildStats) Sub(prev BuildStats) BuildStats {
	return BuildStats{
		BlocksReused:  st.BlocksReused - prev.BlocksReused,
		BlocksRebuilt: st.BlocksRebuilt - prev.BlocksRebuilt,
	}
}

// BuildIncremental constructs the same System Build would, but partitioned
// by routing-table key: keys whose cached block (under version(key)) is
// present are spliced in without re-running rule emission, keys without
// one are emitted normally and recorded into the store. The assembled rule
// list, state numbering, step tags, reduction and final specification are
// byte-identical to a from-scratch Build of the same network — splicing
// rebases each block to the state/tag offsets the fresh build would have
// reached at that key.
func BuildIncremental(net *network.Network, q *query.Query, opts Options,
	store *BlockStore, version func(routing.Key) uint64) (*System, BuildStats) {
	b := &builder{
		System:  &System{Net: net, Query: q, Opts: opts},
		store:   store,
		version: version,
	}
	b.construct()
	return b.System, b.stats
}

// record emits one key's rules normally, then snapshots them in
// relocatable form.
func (b *builder) record(key routing.Key) *ruleBlock {
	r0 := len(b.PDS.Rules)
	s0 := b.PDS.NumStates
	t0 := len(b.Steps)
	b.buildKey(key)
	blk := &ruleBlock{
		numStates: b.PDS.NumStates - s0,
		steps:     append([]StepInfo(nil), b.Steps[t0:]...),
		rules:     make([]pds.Rule, 0, len(b.PDS.Rules)-r0),
	}
	for _, r := range b.PDS.Rules[r0:] {
		r.FromState = relocOut(r.FromState, s0, b.baseCnt)
		r.ToState = relocOut(r.ToState, s0, b.baseCnt)
		if r.Tag >= 0 {
			r.Tag -= int32(t0)
		}
		blk.rules = append(blk.rules, r)
	}
	return blk
}

// splice replays a recorded block at the current state/tag offsets.
func (b *builder) splice(blk *ruleBlock) {
	s0 := pds.State(b.PDS.NumStates)
	for i := 0; i < blk.numStates; i++ {
		b.PDS.AddState()
	}
	t0 := int32(len(b.Steps))
	for _, r := range blk.rules {
		r.FromState = relocIn(r.FromState, s0, b.baseCnt)
		r.ToState = relocIn(r.ToState, s0, b.baseCnt)
		if r.Tag >= 0 {
			r.Tag += t0
		}
		b.PDS.AddRule(r)
	}
	b.Steps = append(b.Steps, blk.steps...)
}

// relocOut turns an absolute state into block-relative form: base control
// states (< baseCnt) are position-independent and kept as-is, chain states
// are rebased to baseCnt+offset. Chain states referenced by a key's rules
// are always the key's own allocations, so st >= s0 holds.
func relocOut(st pds.State, s0, baseCnt int) pds.State {
	if int(st) < baseCnt {
		return st
	}
	return pds.State(baseCnt + (int(st) - s0))
}

// relocIn inverts relocOut at a new allocation offset.
func relocIn(st pds.State, s0 pds.State, baseCnt int) pds.State {
	if int(st) < baseCnt {
		return st
	}
	return s0 + (st - pds.State(baseCnt))
}

// Scenario-session metrics: overlay cache hits/misses count assembled
// systems served without/with a rebuild, block counters count per-key rule
// partitions reused from (or recorded into) the block store during
// rebuilds. Together they show how much translation work a delta really
// costs: a cheap delta rebuilds a handful of blocks and reuses the rest.
var (
	mOverlayHits    = obs.GetCounter("scenario_overlay_cache_hits_total")
	mOverlayMisses  = obs.GetCounter("scenario_overlay_cache_misses_total")
	mBlocksReused   = obs.GetCounter("scenario_rule_blocks_reused_total")
	mBlocksRebuilt  = obs.GetCounter("scenario_rule_blocks_rebuilt_total")
	mOverlayEntries = obs.GetGauge("scenario_overlay_cache_entries")
)

// SessionCache memoizes translated systems for a scenario session: a
// network that mutates in controlled steps (deltas) while keeping its
// topology and label table fixed. Entries are keyed like Cache's — by
// compiled query identity, direction, weight spec and reduction flag — but
// each entry additionally carries the delta fingerprint it was assembled
// under and a BlockStore of per-routing-key rule blocks. A Get under the
// same fingerprint is a pure hit; a Get after a delta reassembles the
// system via BuildIncremental, re-emitting only the keys whose content
// version changed (the session's per-router dirty tracking) and splicing
// every other block from the store.
//
// SetOverlay swaps the overlay network, fingerprint and version function
// after each mutation; the session serializes SetOverlay against Get, so
// a consistent (net, fp, version) triple is read under the lock.
type SessionCache struct {
	base *network.Network

	mu      sync.Mutex
	net     *network.Network // current overlay
	fp      uint64
	version func(routing.Key) uint64
	entries map[cacheKey]*sessionEntry

	gets, hits                  atomic.Int64
	blocksReused, blocksRebuilt atomic.Int64
}

type sessionEntry struct {
	mu    sync.Mutex
	store *BlockStore
	fp    uint64
	valid bool
	sys   *System
	init  *pds.Auto
}

// NewSessionCache returns a session cache whose overlay starts as the base
// network itself (fingerprint 0, every key at version 0).
func NewSessionCache(base *network.Network) *SessionCache {
	return &SessionCache{
		base:    base,
		net:     base,
		version: func(routing.Key) uint64 { return 0 },
		entries: make(map[cacheKey]*sessionEntry),
	}
}

// Net returns the current overlay network.
func (c *SessionCache) Net() *network.Network {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.net
}

// SetOverlay installs a new overlay network with its delta fingerprint and
// per-key content version function. Assembled systems are invalidated
// lazily: each entry compares its fingerprint on the next Get.
func (c *SessionCache) SetOverlay(net *network.Network, fp uint64, version func(routing.Key) uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.net = net
	c.fp = fp
	c.version = version
}

// Get returns the translated system for (q, opts) against the current
// overlay, assembling incrementally on fingerprint change. The returned
// System is read-only and shared; the automaton is private to the caller.
func (c *SessionCache) Get(q *query.Query, opts Options) (*System, *pds.Auto) {
	c.gets.Add(1)
	// Query-scoped slicing is incompatible with incremental assembly: a
	// cached per-key block must splice into any future overlay, but slice
	// liveness is a global property of the whole routing table, so a block
	// recorded under one slice could be wrong under the next overlay's.
	// Sessions therefore always build unsliced — the documented fallback
	// (DESIGN.md §11).
	opts.Slice = false
	c.mu.Lock()
	net, fp, version := c.net, c.fp, c.version
	if opts.Dist != nil {
		c.mu.Unlock()
		// Functions have no identity; build fresh without caching, like Cache.
		mOverlayMisses.Inc()
		sys := Build(net, q, opts)
		return sys, sys.InitAuto()
	}
	key := cacheKey{q: q, mode: opts.Mode, spec: specString(opts.Spec), noReductions: opts.NoReductions}
	e := c.entries[key]
	if e == nil {
		e = &sessionEntry{store: NewBlockStore()}
		c.entries[key] = e
		mOverlayEntries.Set(int64(len(c.entries)))
	}
	c.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.valid && e.fp == fp {
		c.hits.Add(1)
		mOverlayHits.Inc()
		return e.sys, e.init.Clone()
	}
	mOverlayMisses.Inc()
	sys, st := BuildIncremental(net, q, opts, e.store, version)
	c.blocksReused.Add(int64(st.BlocksReused))
	c.blocksRebuilt.Add(int64(st.BlocksRebuilt))
	mBlocksReused.Add(int64(st.BlocksReused))
	mBlocksRebuilt.Add(int64(st.BlocksRebuilt))
	e.sys = sys
	e.init = sys.InitAuto()
	// Pre-normalise weights so saturating a clone never rewrites a witness
	// record shared with the pristine automaton.
	e.init.NormalizeWeights(sys.Dim)
	e.fp = fp
	e.valid = true
	return e.sys, e.init.Clone()
}

// Stats reports assembled-system cache effectiveness (a miss is a Get that
// had to reassemble, even when most blocks were spliced from the store).
func (c *SessionCache) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	gets, hits := c.gets.Load(), c.hits.Load()
	return CacheStats{Entries: n, Gets: gets, Misses: gets - hits, Hits: hits}
}

// BlockStats reports cumulative rule-block reuse across all incremental
// assemblies of this cache.
func (c *SessionCache) BlockStats() BuildStats {
	return BuildStats{
		BlocksReused:  int(c.blocksReused.Load()),
		BlocksRebuilt: int(c.blocksRebuilt.Load()),
	}
}
