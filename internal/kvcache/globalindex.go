// Global prefix index: a cluster-wide, lock-free view of which prefix
// blocks each replica currently caches.
//
// Every replica owns a private Manager guarded by that replica's own lock
// (or by the simulator's single thread). Balancers, however, want to ask
// "who holds this chain?" on every routing decision — and probing N
// replica caches under N locks on the serve path is exactly the silo the
// paper argues against. The index inverts the dependency: a replica
// *publishes* an immutable snapshot of its block membership whenever that
// membership changes (creation, demotion, eviction, reset), and routing
// probes the latest snapshot through a single atomic pointer load. Reads
// never block writers, writers never block reads, and a steady-state warm
// cache — whose membership is quiescent even though pins churn — publishes
// nothing at all.
//
// Publication costs what changed, not the whole cache. A manager builds
// a sharded view of its membership at its first export (a manager that
// never publishes builds none). After that, a block creation or eviction
// copies the small shard it touches, once per export, and an export copies
// only the shard table, so successive snapshots share every shard the
// changes between them did not touch. An admission that creates and evicts
// a few dozen blocks costs a few dozen shard copies, however large the
// cache.
//
// Snapshots are epoch-stamped so a reader can tell two publications of
// the same slot apart. They live only inside one process: the gateway
// probes them in place of its replicas' locked caches.
//
// Staleness is inherent and accepted: a probe may see blocks a replica
// evicted a moment ago, or miss blocks it just cached. Consumers therefore
// treat index answers as routing hints — the authoritative hit accounting
// still happens inside the owning replica's AcquirePrefix, and KV-transfer
// planning re-validates the source at admission time.
package kvcache

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
)

// IndexSnapshot is one replica's published block membership: the set of
// chain hashes resident in either tier, plus tier occupancy counts for
// observability. Snapshots are immutable after construction; the global
// index swaps whole snapshots atomically.
//
// The set is split into 2^k shards by a hash's top k bits, each a sorted
// slice. Successive exports from one manager share every shard that the
// membership changes between them did not touch, and the whole shard
// table when nothing changed.
//
//qoserve:frozen
type IndexSnapshot struct {
	// Epoch is the publish sequence number for the owning slot, stamped by
	// GlobalIndex.Publish (1 for a slot's first snapshot). A snapshot that
	// has not been published carries 0.
	Epoch uint64
	// BlockTokens is the block size the hashes cover.
	BlockTokens int
	// HBMBlocks / DRAMBlocks count resident blocks per tier at snapshot
	// time; they sum to the number of hashes.
	HBMBlocks  int
	DRAMBlocks int

	shift  uint       // 64 - k: a hash's shard is h >> shift
	shards [][]uint64 // 2^k sorted shards, never written after export
}

// NewIndexSnapshot builds a snapshot from an explicit hash set. hbm + dram
// must equal len(hashes), and the hashes must be distinct: a duplicate is
// an error, as is a tier sum that does not match.
func NewIndexSnapshot(blockTokens, hbm, dram int, hashes []uint64) (*IndexSnapshot, error) {
	if blockTokens < 1 {
		return nil, fmt.Errorf("kvcache: index block size %d", blockTokens)
	}
	if hbm < 0 || dram < 0 {
		return nil, fmt.Errorf("kvcache: index tier counts %d hbm, %d dram", hbm, dram)
	}
	sorted := slices.Clone(hashes)
	slices.Sort(sorted)
	distinct := len(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			distinct--
		}
	}
	if distinct != len(hashes) {
		return nil, fmt.Errorf("kvcache: index has %d hashes but only %d distinct", len(hashes), distinct)
	}
	if hbm+dram != len(hashes) {
		return nil, fmt.Errorf("kvcache: index tiers %d+%d != %d hashes", hbm, dram, len(hashes))
	}
	// Sorted order groups each shard's hashes into one run.
	shift := shardShift(len(hashes))
	shards := make([][]uint64, 1<<(64-shift))
	for len(sorted) > 0 {
		s := sorted[0] >> shift
		n := 1
		for n < len(sorted) && sorted[n]>>shift == s {
			n++
		}
		shards[s], sorted = sorted[:n:n], sorted[n:]
	}
	return &IndexSnapshot{BlockTokens: blockTokens, HBMBlocks: hbm, DRAMBlocks: dram, shift: shift, shards: shards}, nil
}

// Blocks is the number of resident prefix blocks the snapshot advertises.
func (s *IndexSnapshot) Blocks() int {
	if s == nil {
		return 0
	}
	return s.HBMBlocks + s.DRAMBlocks
}

// Contains reports whether the snapshot advertises the block hash.
//
//qoserve:hotpath
func (s *IndexSnapshot) Contains(h uint64) bool {
	if s == nil {
		return false
	}
	return shardHas(s.shards[h>>s.shift], h, s.shift)
}

// MatchTokens walks the prefix chain and reports how many prompt tokens
// the advertised blocks cover — the lock-free analogue of
// Manager.MatchTokens. A nil snapshot (nothing published yet) matches
// nothing.
//
//qoserve:hotpath
func (s *IndexSnapshot) MatchTokens(chain []uint64) int {
	if s == nil {
		return 0
	}
	n := 0
	for _, h := range chain {
		if !s.Contains(h) {
			break
		}
		n++
	}
	return n * s.BlockTokens
}

// shardTarget is the mean number of hashes per shard at full capacity:
// touching a shard costs a copy of about 256 bytes, and the shard table
// stays a fraction of the hashes it indexes.
const shardTarget = 32

// shardShift is 64 - k for a set of up to n hashes, where 2^k is the
// fewest shards that hold n at no more than shardTarget each.
func shardShift(n int) uint {
	return 64 - uint(bits.Len(uint(max(n-1, 0)/shardTarget)))
}

// shardHas reports whether shard, a sorted shard of a set split by the
// top 64-shift bits, holds h. A shard's hashes spread evenly over its
// range, so h's offset in that range guesses its rank to within a few
// places: a short scan from the guess settles most probes, and a binary
// search of the rest keeps clustered hashes logarithmic.
//
//qoserve:hotpath
func shardHas(shard []uint64, h uint64, shift uint) bool {
	n := uint(len(shard))
	if n == 0 {
		return false
	}
	i := uint((h << (64 - shift) >> 32) * uint64(n) >> 32)
	if shard[i] < h {
		// The first hash >= h lies above i.
		for j, end := i+1, min(i+4, n); j < end; j++ {
			if shard[j] >= h {
				return shard[j] == h
			}
		}
		return i+4 < n && sortedHas(shard[i+4:], h)
	}
	// The first hash >= h lies at or below i.
	end := i - min(i, 3)
	for j := i; j > end; j-- {
		if shard[j-1] < h {
			return shard[j] == h
		}
	}
	return sortedHas(shard[:end+1], h)
}

// sortedHas reports whether the sorted slice holds h, by binary search.
//
//qoserve:hotpath
func sortedHas(sorted []uint64, h uint64) bool {
	i, n := uint(0), uint(len(sorted))
	for n > 1 {
		half := n / 2
		if j := i + half; sorted[j] <= h {
			i = j
		}
		n -= half
	}
	return n == 1 && sorted[i] == h
}

// GlobalIndex holds one published IndexSnapshot per replica behind an
// atomic pointer. Publishing swaps the whole snapshot; probing is a single
// pointer load plus read-only shard searches. There are no locks anywhere.
type GlobalIndex struct {
	slots []atomic.Pointer[IndexSnapshot]
}

// NewGlobalIndex returns an index with one empty slot per replica.
func NewGlobalIndex(replicas int) *GlobalIndex {
	if replicas < 1 {
		panic(fmt.Sprintf("kvcache: global index over %d replicas", replicas))
	}
	return &GlobalIndex{slots: make([]atomic.Pointer[IndexSnapshot], replicas)}
}

// Replicas is the number of slots.
func (g *GlobalIndex) Replicas() int { return len(g.slots) }

// Publish installs snap as replica i's current snapshot, stamping its
// Epoch to the slot's previous epoch plus one. The index takes ownership:
// the caller must not retain or mutate snap after publishing.
func (g *GlobalIndex) Publish(i int, snap *IndexSnapshot) {
	if snap == nil {
		panic("kvcache: publishing nil index snapshot")
	}
	snap.Epoch = g.Epoch(i) + 1
	g.slots[i].Store(snap)
}

// Snapshot returns replica i's latest published snapshot, nil when nothing
// has been published (or i is out of range — crashed sources hand out
// stale indices, so probes tolerate them).
//
//qoserve:hotpath
func (g *GlobalIndex) Snapshot(i int) *IndexSnapshot {
	if i < 0 || i >= len(g.slots) {
		return nil
	}
	return g.slots[i].Load()
}

// Epoch is replica i's current publish epoch (0 before the first publish).
func (g *GlobalIndex) Epoch(i int) uint64 {
	if s := g.Snapshot(i); s != nil {
		return s.Epoch
	}
	return 0
}

// MatchTokens probes replica i's advertised chain coverage without
// touching the replica.
//
//qoserve:hotpath
func (g *GlobalIndex) MatchTokens(i int, chain []uint64) int {
	return g.Snapshot(i).MatchTokens(chain)
}

// BestMatch scans slots [0, n) and returns the replica advertising the
// longest chain coverage and that coverage in tokens. holder is -1 when no
// slot matches anything. Ties keep the lowest index, making routing
// deterministic.
//
//qoserve:hotpath
func (g *GlobalIndex) BestMatch(n int, chain []uint64) (holder, hitTokens int) {
	if n > len(g.slots) {
		n = len(g.slots)
	}
	holder = -1
	for i := 0; i < n; i++ {
		if m := g.Snapshot(i).MatchTokens(chain); m > hitTokens {
			holder, hitTokens = i, m
		}
	}
	return holder, hitTokens
}

// IndexVersion is a counter of mutations that change membership or tier
// counts (block creation, demotion, promotion, eviction, reset) since
// construction. Pin churn on a warm cache changes neither and does not
// bump the version, so "version unchanged" is a cheap steady-state test
// for "nothing to republish".
func (m *Manager) IndexVersion() uint64 { return m.version }

// ExportIndex builds a publishable snapshot of the manager's current block
// membership. The snapshot is independent of the manager; publish it with
// GlobalIndex.Publish.
//
// The first export builds the manager's sharded view of its membership
// from the resident blocks. From then on, the first block creation or
// eviction that touches a shard after an export copies that shard, and an
// export copies only the shard table: successive snapshots share every
// shard the admissions between them did not touch. An export after tier
// moves alone reuses the previous table outright.
func (m *Manager) ExportIndex() *IndexSnapshot {
	if m.view == nil {
		m.view = newShardView(m.totalBlocks+m.dramBlocks, m.nodes)
	}
	return &IndexSnapshot{
		BlockTokens: m.blockTokens,
		HBMBlocks:   len(m.nodes) - m.dramUsed,
		DRAMBlocks:  m.dramUsed,
		shift:       m.view.shift,
		shards:      m.view.export(),
	}
}

// shardView is a manager's membership in the sharded form snapshots
// carry, copy-on-write: a shard is shared with the last export until the
// manager first edits it, which copies it, so no exported shard is ever
// written.
type shardView struct {
	shift   uint
	shards  [][]uint64 // sorted; shards[s] is the manager's alone if owned[s]
	owned   []bool
	changed bool       // shards differs from pub
	pub     [][]uint64 // shard table of the last export
}

// newShardView indexes nodes in shards sized for a cache of capacity
// blocks.
func newShardView(capacity int, nodes map[uint64]*prefixBlock) *shardView {
	shift := shardShift(capacity)
	n := 1 << (64 - shift)
	v := &shardView{shift: shift, shards: make([][]uint64, n), owned: make([]bool, n), changed: true}
	for h := range nodes {
		s := h >> shift
		v.shards[s] = append(v.shards[s], h)
	}
	for s, sh := range v.shards {
		slices.Sort(sh)
		v.owned[s] = true
	}
	return v
}

// shardSlack is the spare capacity a shard copy gets: an admission's new
// blocks often land two or more in one shard, and each insert past the
// copy's capacity would reallocate it.
const shardSlack = 4

// edit returns shard s for writing, copying it first if the last export
// shares it. The copy has room for shardSlack inserts.
func (v *shardView) edit(s uint64) []uint64 {
	if !v.owned[s] {
		sh := make([]uint64, len(v.shards[s]), len(v.shards[s])+shardSlack)
		copy(sh, v.shards[s])
		v.shards[s], v.owned[s] = sh, true
	}
	v.changed = true
	return v.shards[s]
}

// add records a created block.
func (v *shardView) add(h uint64) {
	s := h >> v.shift
	sh := v.edit(s)
	i, _ := slices.BinarySearch(sh, h)
	v.shards[s] = slices.Insert(sh, i, h)
}

// remove records an evicted block.
func (v *shardView) remove(h uint64) {
	s := h >> v.shift
	if i, ok := slices.BinarySearch(v.shards[s], h); ok {
		v.shards[s] = slices.Delete(v.edit(s), i, i+1)
	}
}

// reset records that every block is gone. Dropping a shard writes
// nothing, so it needs no copy.
func (v *shardView) reset() {
	for s, sh := range v.shards {
		if len(sh) > 0 {
			v.shards[s], v.owned[s] = nil, true
			v.changed = true
		}
	}
}

// export returns the shard table for a new snapshot: the previous one
// when no shard changed, else a copy of the manager's, whose shards the
// manager then shares until it edits them again.
func (v *shardView) export() [][]uint64 {
	if v.changed {
		v.pub = slices.Clone(v.shards)
		clear(v.owned)
		v.changed = false
	}
	return v.pub
}

// TierUtilization reports each tier's occupancy fraction: HBM counts
// allocations plus resident cache against HBM capacity, DRAM counts
// spill-tier residents against DRAM capacity (0 when the tier is
// disabled).
func (m *Manager) TierUtilization() (hbm, dram float64) {
	hbm = m.Utilization()
	if m.dramBlocks > 0 {
		dram = float64(m.dramUsed) / float64(m.dramBlocks)
	}
	return hbm, dram
}
