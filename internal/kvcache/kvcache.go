// Package kvcache implements the paged KV-cache block manager behind every
// serving replica: a vLLM-style flat allocator for per-request (private)
// context blocks, extended with a block-hashed prefix tree that shares
// immutable prompt-prefix blocks across requests, and a two-tier
// (HBM + DRAM-spill) eviction model with reload-cost accounting.
//
// # Private allocation
//
// Each request's context occupies fixed-size token blocks. The manager
// tracks capacity so a replica can apply admission control (don't start a
// prefill whose KV won't fit) and model memory pressure during overload:
// Grow reserves blocks, Release frees them, CanGrow probes.
//
// # Prefix sharing
//
// Requests that re-send a shared prompt prefix (multi-turn conversations,
// shared system prompts) can carry a prefix hash chain: one 64-bit hash per
// full prompt block, where hash i commits to the entire prefix up to and
// including block i (see ExtendChain). Equal hashes therefore imply equal
// prefixes, which makes a flat hash->block map an implicit radix tree:
// AcquirePrefix walks the chain, reuses every block already cached
// (refcounted), and creates fresh blocks from the first divergent hash on —
// the copy-on-write point. Shared blocks are immutable by construction
// (prefill output for a fixed prefix is deterministic), so "copy" never
// moves bytes, it just stops sharing. Tokens covered by reused blocks skip
// prefill entirely; the replica and gateway credit them via
// request.ApplyPrefixHit.
//
// # Tiers, eviction, and reload
//
// Released prefix blocks stay resident (refs == 0) and form the reuse pool.
// Under HBM pressure the least-recently-used unpinned block is demoted to a
// DRAM spill tier (Config.DRAMTokens); when DRAM overflows, its LRU block
// is evicted outright. Matching a DRAM-resident block promotes it back to
// HBM and charges a transfer cost (Config.ReloadTokensPerSec) that the
// simulator adds to the admitting iteration — a warm prefix is cheaper than
// recompute but not free. Private allocations always win over cache: Grow
// reclaims unpinned cached blocks before reporting the cache full.
//
// The manager is not safe for concurrent use; a simulated replica owns
// exactly one manager, and the live gateway wraps per-replica managers in a
// small mutex (see internal/server).
package kvcache

import "fmt"

// DefaultBlockTokens matches vLLM's default block size. Prefix hash chains
// must be built with the same block size the manager uses; every manager in
// this repository uses the default.
const DefaultBlockTokens = 16

// DefaultReloadTokensPerSec is the DRAM->HBM reload bandwidth expressed in
// KV tokens per second. At ~128 KiB of KV per token (llama3-8B, GQA, fp16)
// a PCIe 4.0 x16 link moving ~25 GB/s sustains roughly 190k tokens/s; the
// default rounds down to stay conservative.
const DefaultReloadTokensPerSec = 150000

// Config sizes a tiered manager.
type Config struct {
	// CapacityTokens is the HBM-resident cache size in tokens.
	CapacityTokens int
	// BlockTokens is the block size (DefaultBlockTokens if zero).
	BlockTokens int
	// DRAMTokens is the spill-tier capacity in tokens. Zero disables the
	// DRAM tier: blocks demoted from HBM are evicted outright.
	DRAMTokens int
	// ReloadTokensPerSec is the DRAM->HBM transfer rate used to price
	// reloads (DefaultReloadTokensPerSec if zero).
	ReloadTokensPerSec float64
}

// prefixBlock is one shared prompt block in the prefix tree. Blocks with
// refs > 0 are pinned (always HBM-resident); unpinned blocks live on their
// tier's intrusive LRU list.
type prefixBlock struct {
	hash       uint64
	refs       int
	dram       bool
	prev, next *prefixBlock
}

// lruList is an intrusive doubly-linked list of unpinned prefix blocks in
// least-recently-used order (front = coldest).
type lruList struct {
	front, back *prefixBlock
	n           int
}

//qoserve:hotpath
func (l *lruList) pushBack(b *prefixBlock) {
	b.prev, b.next = l.back, nil
	if l.back != nil {
		l.back.next = b
	} else {
		l.front = b
	}
	l.back = b
	l.n++
}

//qoserve:hotpath
func (l *lruList) remove(b *prefixBlock) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		l.front = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		l.back = b.prev
	}
	b.prev, b.next = nil, nil
	l.n--
}

func (l *lruList) popFront() *prefixBlock {
	b := l.front
	if b != nil {
		l.remove(b)
	}
	return b
}

// Manager allocates KV-cache blocks to requests and caches shared prefix
// blocks across them. It is not safe for concurrent use.
type Manager struct {
	blockTokens int
	totalBlocks int            // HBM tier, in blocks
	freeBlocks  int            // HBM blocks neither allocated nor caching a prefix
	held        map[uint64]int // request ID -> private blocks held
	peakUsed    int

	dramBlocks int // spill tier capacity, in blocks
	dramUsed   int
	reloadRate float64 // tokens/s for DRAM->HBM promotion

	nodes   map[uint64]*prefixBlock   // chain hash -> block (both tiers)
	pins    map[uint64][]*prefixBlock // request ID -> pinned chain blocks
	hbmLRU  lruList                   // unpinned HBM-resident blocks
	dramLRU lruList                   // DRAM-resident blocks (never pinned)

	// version counts membership-affecting mutations (see IndexVersion);
	// it deliberately survives Reset so an index consumer never misses
	// the transition back to empty.
	version uint64
	// view is the exportable membership, nil until the first ExportIndex:
	// a manager that never publishes keeps no second copy of it.
	view *shardView

	// Statistics (lifetime; Reset clears them).
	hitTokens    uint64
	reloadTokens uint64
	demotions    uint64 // HBM -> DRAM moves
	hbmEvictions uint64 // blocks dropped straight from HBM (no DRAM tier)
	dramEvicted  uint64 // blocks dropped from the DRAM tier
}

// NewManager returns a flat (single-tier, no spill) manager for a cache of
// capacityTokens tokens divided into blocks of blockTokens
// (DefaultBlockTokens if zero). Prefix sharing still works; demoted blocks
// are simply evicted rather than spilled.
func NewManager(capacityTokens, blockTokens int) (*Manager, error) {
	return NewTiered(Config{CapacityTokens: capacityTokens, BlockTokens: blockTokens})
}

// NewTiered returns a manager with the full two-tier configuration.
func NewTiered(cfg Config) (*Manager, error) {
	if cfg.BlockTokens == 0 {
		cfg.BlockTokens = DefaultBlockTokens
	}
	if cfg.BlockTokens < 1 {
		return nil, fmt.Errorf("kvcache: block size %d", cfg.BlockTokens)
	}
	if cfg.CapacityTokens < 0 {
		return nil, fmt.Errorf("kvcache: capacity %d tokens", cfg.CapacityTokens)
	}
	if cfg.DRAMTokens < 0 {
		return nil, fmt.Errorf("kvcache: DRAM tier %d tokens", cfg.DRAMTokens)
	}
	if cfg.ReloadTokensPerSec < 0 {
		return nil, fmt.Errorf("kvcache: reload rate %v", cfg.ReloadTokensPerSec)
	}
	if cfg.ReloadTokensPerSec == 0 {
		cfg.ReloadTokensPerSec = DefaultReloadTokensPerSec
	}
	blocks := cfg.CapacityTokens / cfg.BlockTokens
	return &Manager{
		blockTokens: cfg.BlockTokens,
		totalBlocks: blocks,
		freeBlocks:  blocks,
		held:        make(map[uint64]int),
		dramBlocks:  cfg.DRAMTokens / cfg.BlockTokens,
		reloadRate:  cfg.ReloadTokensPerSec,
		nodes:       make(map[uint64]*prefixBlock),
		pins:        make(map[uint64][]*prefixBlock),
	}, nil
}

// blocksFor is the blocks needed to hold tokens.
func (m *Manager) blocksFor(tokens int) int {
	if tokens <= 0 {
		return 0
	}
	return (tokens + m.blockTokens - 1) / m.blockTokens
}

// BlockTokens is the configured block size in tokens.
func (m *Manager) BlockTokens() int { return m.blockTokens }

// CapacityTokens is the total HBM cache size in tokens.
func (m *Manager) CapacityTokens() int { return m.totalBlocks * m.blockTokens }

// FreeTokens is the token capacity of currently free HBM blocks. Unpinned
// cached prefix blocks do not count as free even though Grow can reclaim
// them; use ReclaimableTokens for the cache-inclusive headroom.
func (m *Manager) FreeTokens() int { return m.freeBlocks * m.blockTokens }

// ReclaimableTokens is FreeTokens plus the unpinned cached blocks Grow may
// demote or evict to make room.
func (m *Manager) ReclaimableTokens() int {
	return (m.freeBlocks + m.hbmLRU.n) * m.blockTokens
}

// Utilization is the fraction of HBM blocks in use (allocations plus
// resident cache), in [0,1].
func (m *Manager) Utilization() float64 {
	if m.totalBlocks == 0 {
		return 1
	}
	return float64(m.totalBlocks-m.freeBlocks) / float64(m.totalBlocks)
}

// PeakUtilization is the high-water fraction of HBM blocks ever in use.
// It accumulates for the manager's lifetime; harnesses that reuse a manager
// across repetitions must call Reset between them.
func (m *Manager) PeakUtilization() float64 {
	if m.totalBlocks == 0 {
		return 1
	}
	return float64(m.peakUsed) / float64(m.totalBlocks)
}

// notePeak refreshes the high-water mark after an allocation.
func (m *Manager) notePeak() {
	if used := m.totalBlocks - m.freeBlocks; used > m.peakUsed {
		m.peakUsed = used
	}
}

// CanGrow reports whether request id could extend its allocation to cover
// tokens total context without exceeding capacity, counting unpinned cached
// blocks as reclaimable.
func (m *Manager) CanGrow(id uint64, tokens int) bool {
	need := m.blocksFor(tokens) - len(m.pins[id]) - m.held[id]
	return need <= m.freeBlocks+m.hbmLRU.n
}

// Grow extends (or creates) request id's private allocation to cover tokens
// total context; blocks already pinned for the request's prefix count
// toward the total. Unpinned cached blocks are demoted or evicted as needed
// — the cache never blocks a real allocation. It reports whether the
// allocation succeeded; on failure the request's existing allocation is
// unchanged.
func (m *Manager) Grow(id uint64, tokens int) bool {
	cur := m.held[id]
	want := m.blocksFor(tokens) - len(m.pins[id])
	if want <= cur {
		return true // already covered; blocks are never shrunk mid-flight
	}
	need := want - cur
	if need > m.freeBlocks+m.hbmLRU.n {
		return false
	}
	if !m.makeRoom(need) {
		return false
	}
	m.freeBlocks -= need
	m.held[id] = want
	m.notePeak()
	return true
}

// makeRoom demotes or evicts unpinned cached blocks until at least n HBM
// blocks are free. It reports whether it succeeded; on failure the blocks
// already reclaimed stay free (they were the coldest anyway).
func (m *Manager) makeRoom(n int) bool {
	for m.freeBlocks < n {
		victim := m.hbmLRU.popFront()
		if victim == nil {
			return false
		}
		m.demote(victim)
	}
	return true
}

// demote moves an unpinned HBM block to the DRAM tier (evicting the DRAM
// LRU block on overflow) or evicts it outright when there is no DRAM tier,
// freeing its HBM block either way.
func (m *Manager) demote(b *prefixBlock) {
	m.version++
	m.freeBlocks++
	if m.dramBlocks == 0 {
		delete(m.nodes, b.hash)
		if m.view != nil {
			m.view.remove(b.hash)
		}
		m.hbmEvictions++
		return
	}
	b.dram = true
	m.dramLRU.pushBack(b)
	m.dramUsed++
	m.demotions++
	if m.dramUsed > m.dramBlocks {
		cold := m.dramLRU.popFront()
		delete(m.nodes, cold.hash)
		if m.view != nil {
			m.view.remove(cold.hash)
		}
		m.dramUsed--
		m.dramEvicted++
	}
}

// Match walks the prefix chain and reports how many prompt tokens are
// covered by cached blocks (hitTokens) and how many of those currently sit
// in the DRAM tier and would need a reload (reloadTokens). It never
// mutates state, so balancers may probe replicas with it before routing.
//
//qoserve:hotpath
func (m *Manager) Match(chain []uint64) (hitTokens, reloadTokens int) {
	for _, h := range chain {
		b := m.nodes[h]
		if b == nil {
			break
		}
		hitTokens += m.blockTokens
		if b.dram {
			reloadTokens += m.blockTokens
		}
	}
	return hitTokens, reloadTokens
}

// MatchTokens is Match's hitTokens only, the balancer affinity score.
//
//qoserve:hotpath
func (m *Manager) MatchTokens(chain []uint64) int {
	hit, _ := m.Match(chain)
	return hit
}

// AcquireResult reports what AcquirePrefix did for one request.
type AcquireResult struct {
	// HitTokens is the prompt tokens covered by blocks that were already
	// cached — the tokens whose prefill can be skipped.
	HitTokens int
	// ReloadTokens is the subset of HitTokens promoted from the DRAM tier;
	// the caller charges ReloadTokens / Config.ReloadTokensPerSec of
	// transfer time to the admitting iteration.
	ReloadTokens int
	// CachedTokens is the chain tokens now pinned for this request,
	// matched and newly created alike.
	CachedTokens int
}

// AcquirePrefix walks the request's prefix chain, pinning every cached
// block it matches (promoting DRAM-resident ones back to HBM) and creating
// shareable blocks for the divergent remainder. Pinned blocks are released
// by Release. Under extreme pressure the walk stops early — the request
// then simply caches a shorter prefix; correctness is unaffected because
// uncovered tokens fall back to private allocation via Grow.
//
// Acquiring twice for the same id without an intervening Release panics:
// a request has exactly one prefix.
func (m *Manager) AcquirePrefix(id uint64, chain []uint64) AcquireResult {
	var res AcquireResult
	if len(chain) == 0 {
		return res
	}
	if len(m.pins[id]) > 0 {
		panic(fmt.Sprintf("kvcache: request %d already holds a prefix pin", id))
	}
	pins := make([]*prefixBlock, 0, len(chain))
	i := 0
	for ; i < len(chain); i++ {
		b := m.nodes[chain[i]]
		if b == nil {
			break
		}
		if b.dram {
			if !m.promote(b) {
				break // cannot promote; stop matching here
			}
			res.ReloadTokens += m.blockTokens
		} else if b.refs == 0 {
			m.hbmLRU.remove(b)
		}
		b.refs++
		pins = append(pins, b)
		res.HitTokens += m.blockTokens
	}
	for ; i < len(chain); i++ {
		if b := m.nodes[chain[i]]; b != nil {
			// Cached but unreachable: an earlier chain block was evicted, so
			// this block's tokens sit past the hit point and the prefill will
			// recompute them anyway. Re-pin the existing block — no hit or
			// reload credit — instead of allocating a duplicate; if it sat in
			// DRAM, promote it structurally (the recompute overwrites it, so
			// no transfer is charged).
			if b.dram {
				if !m.promote(b) {
					break
				}
			} else if b.refs == 0 {
				m.hbmLRU.remove(b)
			}
			b.refs++
			pins = append(pins, b)
			continue
		}
		if !m.makeRoom(1) {
			break // cache full of pinned blocks; rest stays uncached
		}
		b := &prefixBlock{hash: chain[i], refs: 1}
		m.nodes[chain[i]] = b
		if m.view != nil {
			m.view.add(chain[i])
		}
		m.freeBlocks--
		m.version++
		pins = append(pins, b)
	}
	if len(pins) > 0 {
		m.pins[id] = pins
	}
	res.CachedTokens = len(pins) * m.blockTokens
	m.hitTokens += uint64(res.HitTokens)
	m.reloadTokens += uint64(res.ReloadTokens)
	m.notePeak()
	return res
}

// promote moves DRAM-resident b back to HBM. It fails when no HBM block
// can be freed, and when freeing one demoted a block into a full DRAM tier
// whose coldest block was b itself: b is then evicted, not promotable.
func (m *Manager) promote(b *prefixBlock) bool {
	if !m.makeRoom(1) || m.nodes[b.hash] != b {
		return false
	}
	m.dramLRU.remove(b)
	m.dramUsed--
	b.dram = false
	m.freeBlocks--
	m.version++
	return true
}

// Release frees all private blocks held by request id and unpins its prefix
// blocks. Unpinned prefix blocks stay cached (that is the cache) until
// pressure demotes or evicts them. Releasing an unknown id is a no-op so
// that callers can release unconditionally on request completion.
//
//qoserve:hotpath
func (m *Manager) Release(id uint64) {
	if blocks, ok := m.held[id]; ok {
		m.freeBlocks += blocks
		delete(m.held, id)
	}
	if pins, ok := m.pins[id]; ok {
		for _, b := range pins {
			b.refs--
			if b.refs == 0 {
				m.hbmLRU.pushBack(b)
			}
		}
		delete(m.pins, id)
	}
}

// Reset returns the manager to its freshly-constructed state: every
// allocation, pin, and cached block is dropped and all statistics —
// including PeakUtilization, which Release deliberately leaves accumulating
// — are zeroed. Sweep harnesses that reuse one manager across repetitions
// call this between runs so per-run peaks and hit counters do not bleed
// into each other.
func (m *Manager) Reset() {
	m.version++
	m.freeBlocks = m.totalBlocks
	m.peakUsed = 0
	m.dramUsed = 0
	clear(m.held)
	clear(m.pins)
	clear(m.nodes)
	if m.view != nil {
		m.view.reset()
	}
	m.hbmLRU = lruList{}
	m.dramLRU = lruList{}
	m.hitTokens = 0
	m.reloadTokens = 0
	m.demotions = 0
	m.hbmEvictions = 0
	m.dramEvicted = 0
}

// ReloadSeconds prices a DRAM->HBM transfer of tokens at the configured
// reload bandwidth.
func (m *Manager) ReloadSeconds(tokens int) float64 {
	if tokens <= 0 {
		return 0
	}
	return float64(tokens) / m.reloadRate
}

// HeldTokens is the token capacity allocated to request id, private blocks
// plus pinned prefix blocks.
func (m *Manager) HeldTokens(id uint64) int {
	return (m.held[id] + len(m.pins[id])) * m.blockTokens
}

// Holders is the number of requests with live allocations or pins.
func (m *Manager) Holders() int {
	n := len(m.held)
	for id := range m.pins {
		if _, ok := m.held[id]; !ok {
			n++
		}
	}
	return n
}

// CachedBlocks reports the prefix blocks resident in each tier (pinned
// blocks count as HBM).
func (m *Manager) CachedBlocks() (hbm, dram int) {
	return len(m.nodes) - m.dramUsed, m.dramUsed
}

// PrefixHitTokens is the lifetime count of prompt tokens served from cached
// prefix blocks.
func (m *Manager) PrefixHitTokens() uint64 { return m.hitTokens }

// PrefixReloadTokens is the lifetime count of hit tokens that had to be
// promoted from the DRAM tier.
func (m *Manager) PrefixReloadTokens() uint64 { return m.reloadTokens }

// TierEvictions reports blocks dropped from each tier: hbm counts blocks
// evicted straight out of HBM (no DRAM tier configured), dram counts
// spill-tier LRU evictions. Demotions (HBM -> DRAM moves) are reported
// separately by Demotions.
func (m *Manager) TierEvictions() (hbm, dram uint64) {
	return m.hbmEvictions, m.dramEvicted
}

// Demotions is the lifetime count of HBM -> DRAM demotions.
func (m *Manager) Demotions() uint64 { return m.demotions }

// checkInvariant panics if block accounting is corrupted. Exposed for tests.
func (m *Manager) checkInvariant() {
	sum := 0
	for _, b := range m.held {
		sum += b
	}
	residentPrefix, dram, pinned := 0, 0, 0
	for _, b := range m.nodes {
		if b.dram {
			dram++
			if b.refs != 0 {
				panic(fmt.Sprintf("kvcache: DRAM block %x pinned (%d refs)", b.hash, b.refs))
			}
		} else {
			residentPrefix++
		}
		if b.refs > 0 {
			pinned++
		}
	}
	if sum+residentPrefix+m.freeBlocks != m.totalBlocks {
		panic(fmt.Sprintf("kvcache: held %d + resident prefix %d + free %d != total %d",
			sum, residentPrefix, m.freeBlocks, m.totalBlocks))
	}
	if dram != m.dramUsed {
		panic(fmt.Sprintf("kvcache: dram nodes %d != dramUsed %d", dram, m.dramUsed))
	}
	if m.dramUsed > m.dramBlocks {
		panic(fmt.Sprintf("kvcache: dram used %d > capacity %d", m.dramUsed, m.dramBlocks))
	}
	if got := residentPrefix - pinnedDistinct(m.nodes); got != m.hbmLRU.n {
		panic(fmt.Sprintf("kvcache: unpinned HBM blocks %d != LRU list %d", got, m.hbmLRU.n))
	}
	_ = pinned
}

// pinnedDistinct counts HBM-resident blocks with live pins.
func pinnedDistinct(nodes map[uint64]*prefixBlock) int {
	n := 0
	for _, b := range nodes {
		if !b.dram && b.refs > 0 {
			n++
		}
	}
	return n
}
