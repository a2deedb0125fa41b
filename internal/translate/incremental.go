package translate

import (
	"fmt"
	"sync"
	"sync/atomic"

	"aalwines/internal/network"
	"aalwines/internal/obs"
	"aalwines/internal/pds"
	"aalwines/internal/query"
	"aalwines/internal/routing"
	"aalwines/internal/weight"
)

// ruleBlock is the relocatable form of the rules one routing-table key
// emits: chain states are stored relative to the block's first allocation
// (encoded as baseCnt+offset, which cannot collide with base control
// states), tags relative to the key's first entry number and weight
// indexes relative to the block's first weight vector. Splicing a
// block into a new build reproduces exactly the rules, state ids and
// tags a from-scratch build would emit for that key, provided the key's
// groups equal the groups the block was emitted from.
type ruleBlock struct {
	groups    routing.Groups // the key's groups the block was emitted from
	rules     []pds.Rule
	weights   pds.Weights
	numStates int // chain states the block allocates
}

// BlockStore caches rule blocks for one (query, translate options) pair
// across incremental builds of networks that share one topology and label
// table. A block is keyed by its routing key and the key's groups,
// compared by content. That is exact: emitKey reads only the key, its
// groups, the query and the shared topology and label table, and the
// key's first entry number, which a splice adds back. Up to
// keyVersions blocks of one key are retained, evicted FIFO, so undoing a
// recent delta still hits.
type BlockStore struct {
	blocks map[routing.Key][]*ruleBlock
	// rules is how many rules the latest build through the store emitted:
	// the next build reserves that many, since an overlay changes few keys.
	rules int
}

// keyVersions bounds how many content versions of one routing key a store
// retains. Scenario sessions bounce between a handful of delta stacks
// (apply, inspect, undo); retaining a few versions makes undo free without
// letting an adversarial delta churn grow the store without bound.
const keyVersions = 8

// NewBlockStore returns an empty store.
func NewBlockStore() *BlockStore {
	return &BlockStore{blocks: make(map[routing.Key][]*ruleBlock)}
}

func (s *BlockStore) get(key routing.Key, gs routing.Groups) *ruleBlock {
	for _, blk := range s.blocks[key] {
		if blk.groups.Equal(gs) {
			return blk
		}
	}
	return nil
}

func (s *BlockStore) put(key routing.Key, blk *ruleBlock) {
	blks := s.blocks[key]
	if len(blks) >= keyVersions {
		blks = append(blks[:0], blks[1:]...)
	}
	s.blocks[key] = append(blks, blk)
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
// by routing-table key: keys whose groups match a cached block are spliced
// in without re-running rule emission, the others are emitted normally and
// recorded into the store. The assembled rule list, state numbering, tags,
// reduction and final specification are byte-identical to a from-scratch
// Build of the same network — splicing rebases each block to the state and
// weight offsets the fresh build would have reached at that key and to the
// key's first entry number in the network's table.
func BuildIncremental(net *network.Network, q *query.Query, opts Options, store *BlockStore) (*System, BuildStats) {
	b := &builder{System: newSystem(net, q, opts), store: store}
	b.construct()
	return b.System, b.stats
}

// record emits one key's rules normally, then snapshots them in
// relocatable form.
func (b *builder) record(key routing.Key, gs routing.Groups, first int32) *ruleBlock {
	r0 := len(b.PDS.Rules)
	s0 := b.PDS.NumStates
	w0 := len(b.PDS.Weights)
	b.emitAll(key, gs, first)
	blk := &ruleBlock{
		groups:    gs,
		numStates: b.PDS.NumStates - s0,
		weights:   append(pds.Weights(nil), b.PDS.Weights[w0:]...),
		rules:     make([]pds.Rule, 0, len(b.PDS.Rules)-r0),
	}
	for _, r := range b.PDS.Rules[r0:] {
		r.FromState = relocOut(r.FromState, s0, b.baseCnt)
		r.ToState = relocOut(r.ToState, s0, b.baseCnt)
		if r.Tag >= 0 {
			r.Tag -= first
		}
		if r.W > 0 {
			r.W -= int32(w0)
		}
		blk.rules = append(blk.rules, r)
	}
	return blk
}

// splice replays a recorded block at the current state and weight offsets,
// for a key whose first entry is numbered first.
func (b *builder) splice(blk *ruleBlock, first int32) {
	s0 := pds.State(b.PDS.NumStates)
	for i := 0; i < blk.numStates; i++ {
		b.PDS.AddState()
	}
	w0 := int32(len(b.PDS.Weights))
	b.PDS.Weights = append(b.PDS.Weights, blk.weights...)
	for _, r := range blk.rules {
		r.FromState = relocIn(r.FromState, s0, b.baseCnt)
		r.ToState = relocIn(r.ToState, s0, b.baseCnt)
		if r.Tag >= 0 {
			r.Tag += first
		}
		if r.W > 0 {
			r.W += w0
		}
		b.PDS.AddRule(r)
	}
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

// SessionCache memoizes translated systems for the overlays of a scenario
// session: networks that share the base's topology and label table and
// differ in routing content. It is the only translation cache: one-shot
// and batch runs build their systems per run. Entries are keyed by
// compiled query identity, direction, weight spec and reduction flag
// (cacheKey). Each entry keeps the System it last assembled, keyed by the
// overlay it was built for, and a BlockStore of per-routing-key rule
// blocks. A Get for that same overlay is a pure hit; a Get for any other
// overlay reassembles the system with BuildIncremental, which re-emits
// only the keys whose groups match no retained block and splices every
// other block from the store.
type SessionCache struct {
	base *network.Network

	mu      sync.Mutex
	entries map[cacheKey]*sessionEntry

	gets, hits                  atomic.Int64
	blocksReused, blocksRebuilt atomic.Int64
}

// cacheKey identifies a SessionCache entry: the compiled query by pointer
// identity, the direction, the weight spec and the reduction flag. Callers
// that want textual deduplication (the batch runner does) parse each
// distinct query text once and reuse the *query.Query. The failure bound k
// is part of the compiled query, so it needs no separate key component.
type cacheKey struct {
	q            *query.Query
	mode         Mode
	spec         string // rendering of the weight spec; "" = unweighted
	noReductions bool
}

func specString(s weight.Spec) string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf("%v", s)
}

type sessionEntry struct {
	mu    sync.Mutex
	store *BlockStore
	net   *network.Network // the overlay sys was assembled for
	sys   *System
	init  *pds.Auto
}

// NewSessionCache returns an empty session cache for the overlays of base.
func NewSessionCache(base *network.Network) *SessionCache {
	return &SessionCache{base: base, entries: make(map[cacheKey]*sessionEntry)}
}

// Get returns the translated system for (net, q, opts), reassembling it
// incrementally unless the entry's last System was built for net itself.
// It serves any network that shares the base's topology and label table,
// and answers ok false for any other. The returned System is read-only and
// shared; the automaton is private to the caller.
func (c *SessionCache) Get(net *network.Network, q *query.Query, opts Options) (*System, *pds.Auto, bool) {
	if net.Topo != c.base.Topo || net.Labels != c.base.Labels {
		return nil, nil, false
	}
	c.gets.Add(1)
	// Sessions assemble the eager product from per-key blocks that splice
	// into any later overlay. The on-the-fly product has no blocks to
	// reuse, so session builds are always eager (DESIGN.md §11).
	opts.Slice = false
	if opts.Dist != nil {
		// Functions have no identity; build fresh without caching.
		mOverlayMisses.Inc()
		sys := Build(net, q, opts)
		return sys, sys.InitAuto(), true
	}
	key := cacheKey{q: q, mode: opts.Mode, spec: specString(opts.Spec), noReductions: opts.NoReductions}
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &sessionEntry{store: NewBlockStore()}
		c.entries[key] = e
		mOverlayEntries.Set(int64(len(c.entries)))
	}
	c.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.net == net {
		c.hits.Add(1)
		mOverlayHits.Inc()
		return e.sys, e.init.Clone(), true
	}
	mOverlayMisses.Inc()
	sys, st := BuildIncremental(net, q, opts, e.store)
	c.blocksReused.Add(int64(st.BlocksReused))
	c.blocksRebuilt.Add(int64(st.BlocksRebuilt))
	mBlocksReused.Add(int64(st.BlocksReused))
	mBlocksRebuilt.Add(int64(st.BlocksRebuilt))
	e.net, e.sys, e.init = net, sys, sys.InitAuto()
	// Pre-normalise weights so saturating a clone never rewrites a witness
	// record shared with the pristine automaton.
	e.init.NormalizeWeights(sys.Dim)
	return e.sys, e.init.Clone(), true
}

// CacheStats summarises cache effectiveness. Hits = Gets - Misses; a get
// that blocked on another goroutine's in-flight build counts as a hit.
type CacheStats struct {
	Entries int
	Gets    int64
	Misses  int64
	Hits    int64
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
