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
	"sync/atomic"
)

// IndexSnapshot is one replica's published block membership: the set of
// chain hashes resident in either tier, plus tier occupancy counts for
// observability. Snapshots are immutable after construction; the global
// index swaps whole snapshots atomically.
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

	hashes map[uint64]struct{}
}

// NewIndexSnapshot builds a snapshot from an explicit hash set. hbm + dram
// must equal len(hashes); duplicate hashes are impossible by construction
// (the slice is folded into a set, so the caller must not pass duplicates —
// they would silently shrink the set and break the tier sum).
func NewIndexSnapshot(blockTokens, hbm, dram int, hashes []uint64) (*IndexSnapshot, error) {
	if blockTokens < 1 {
		return nil, fmt.Errorf("kvcache: index block size %d", blockTokens)
	}
	if hbm < 0 || dram < 0 {
		return nil, fmt.Errorf("kvcache: index tier counts %d hbm, %d dram", hbm, dram)
	}
	set := make(map[uint64]struct{}, len(hashes))
	for _, h := range hashes {
		set[h] = struct{}{}
	}
	if len(set) != len(hashes) {
		return nil, fmt.Errorf("kvcache: index has %d hashes but only %d distinct", len(hashes), len(set))
	}
	if hbm+dram != len(set) {
		return nil, fmt.Errorf("kvcache: index tiers %d+%d != %d hashes", hbm, dram, len(set))
	}
	return &IndexSnapshot{BlockTokens: blockTokens, HBMBlocks: hbm, DRAMBlocks: dram, hashes: set}, nil
}

// Blocks is the number of resident prefix blocks the snapshot advertises.
func (s *IndexSnapshot) Blocks() int {
	if s == nil {
		return 0
	}
	return len(s.hashes)
}

// Contains reports whether the snapshot advertises the block hash.
//
//qoserve:hotpath
func (s *IndexSnapshot) Contains(h uint64) bool {
	if s == nil {
		return false
	}
	_, ok := s.hashes[h]
	return ok
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
		if _, ok := s.hashes[h]; !ok {
			break
		}
		n++
	}
	return n * s.BlockTokens
}

// GlobalIndex holds one published IndexSnapshot per replica behind an
// atomic pointer. Publishing swaps the whole snapshot; probing is a single
// pointer load plus a read-only map walk. There are no locks anywhere.
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

// IndexVersion is a counter of membership-affecting mutations (block
// creation, demotion, eviction, reset) since construction. Pin churn on a
// warm cache does not change membership and does not bump the version, so
// "version unchanged" is a cheap steady-state test for "nothing to
// republish".
func (m *Manager) IndexVersion() uint64 { return m.version }

// ExportIndex builds a publishable snapshot of the manager's current block
// membership. The snapshot is independent of the manager; publish it with
// GlobalIndex.Publish.
func (m *Manager) ExportIndex() *IndexSnapshot {
	hashes := make(map[uint64]struct{}, len(m.nodes))
	for h := range m.nodes {
		hashes[h] = struct{}{}
	}
	return &IndexSnapshot{
		BlockTokens: m.blockTokens,
		HBMBlocks:   len(m.nodes) - m.dramUsed,
		DRAMBlocks:  m.dramUsed,
		hashes:      hashes,
	}
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
