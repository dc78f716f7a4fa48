package kvcache

import "testing"

func TestExportIndexTracksMembership(t *testing.T) {
	m := mustTiered(t, Config{CapacityTokens: 16 * 8, DRAMTokens: 16 * 4})
	idx := NewGlobalIndex(1)

	if v := m.IndexVersion(); v != 0 {
		t.Fatalf("fresh manager version %d", v)
	}
	snap := m.ExportIndex()
	if snap.Blocks() != 0 || snap.HBMBlocks != 0 || snap.DRAMBlocks != 0 {
		t.Fatalf("fresh export not empty: %+v", snap)
	}

	chain := SyntheticChain(1, 0, 4)
	m.AcquirePrefix(1, chain)
	v1 := m.IndexVersion()
	if v1 == 0 {
		t.Fatal("block creation did not bump the index version")
	}
	idx.Publish(0, m.ExportIndex())
	if got := idx.MatchTokens(0, chain); got != 4*m.BlockTokens() {
		t.Fatalf("published match %d tokens, want %d", got, 4*m.BlockTokens())
	}
	if e := idx.Epoch(0); e != 1 {
		t.Fatalf("epoch %d after first publish", e)
	}

	// Pin churn on a warm cache is membership-quiescent.
	m.Release(1)
	m.AcquirePrefix(2, chain)
	m.Release(2)
	if v := m.IndexVersion(); v != v1 {
		t.Fatalf("warm reuse bumped version %d -> %d", v1, v)
	}

	// Demotion and eviction change membership.
	if !m.Grow(9, 16*8) {
		t.Fatal("grow failed")
	}
	if v := m.IndexVersion(); v == v1 {
		t.Fatal("demotion did not bump the index version")
	}
	snap = m.ExportIndex()
	if snap.DRAMBlocks != 4 || snap.HBMBlocks != 0 {
		t.Fatalf("after demotion: %d hbm, %d dram", snap.HBMBlocks, snap.DRAMBlocks)
	}

	vr := m.IndexVersion()
	m.Reset()
	if m.IndexVersion() == vr {
		t.Fatal("reset did not bump the index version")
	}
	idx.Publish(0, m.ExportIndex())
	if got := idx.MatchTokens(0, chain); got != 0 {
		t.Fatalf("match %d tokens after reset", got)
	}
	if e := idx.Epoch(0); e != 2 {
		t.Fatalf("epoch %d after second publish", e)
	}
}

func TestGlobalIndexBestMatch(t *testing.T) {
	idx := NewGlobalIndex(3)
	chain := SyntheticChain(5, 0, 6)

	if h, m := idx.BestMatch(3, chain); h != -1 || m != 0 {
		t.Fatalf("empty index best match (%d, %d)", h, m)
	}

	short, err := NewIndexSnapshot(16, 2, 0, chain[:2])
	if err != nil {
		t.Fatal(err)
	}
	long, err := NewIndexSnapshot(16, 5, 0, chain[:5])
	if err != nil {
		t.Fatal(err)
	}
	idx.Publish(0, short)
	idx.Publish(2, long)

	h, m := idx.BestMatch(3, chain)
	if h != 2 || m != 5*16 {
		t.Fatalf("best match (%d, %d), want (2, 80)", h, m)
	}
	// A scan bounded to the first tier must not see slot 2.
	h, m = idx.BestMatch(2, chain)
	if h != 0 || m != 2*16 {
		t.Fatalf("tier-bounded best match (%d, %d), want (0, 32)", h, m)
	}
	// Out-of-range probes are tolerated (stale source indices).
	if got := idx.MatchTokens(7, chain); got != 0 {
		t.Fatalf("out-of-range match %d", got)
	}
}

func TestNewIndexSnapshotValidates(t *testing.T) {
	if _, err := NewIndexSnapshot(0, 0, 0, nil); err == nil {
		t.Error("accepted zero block size")
	}
	if _, err := NewIndexSnapshot(16, 1, 0, nil); err == nil {
		t.Error("accepted tier count without hashes")
	}
	if _, err := NewIndexSnapshot(16, 2, 0, []uint64{7, 7}); err == nil {
		t.Error("accepted duplicate hashes")
	}
	if _, err := NewIndexSnapshot(16, -1, 1, []uint64{7}); err == nil {
		t.Error("accepted negative tier count")
	}
}

// TestIndexSnapshotClusteredHashes: hashes a client picks need not be
// spread out. Sequential values all land in one shard, where a probe's
// first guess is far off; every probe must still answer exactly.
func TestIndexSnapshotClusteredHashes(t *testing.T) {
	var hashes []uint64
	want := map[uint64]bool{}
	for i := uint64(1); i <= 3000; i++ {
		hashes = append(hashes, 3*i)
		want[3*i] = true
	}
	for _, h := range []uint64{^uint64(0), ^uint64(0) - 7, 1 << 63} {
		hashes = append(hashes, h)
		want[h] = true
	}
	s, err := NewIndexSnapshot(16, len(hashes), 0, hashes)
	if err != nil {
		t.Fatal(err)
	}
	probe := func(h uint64) {
		if s.Contains(h) != want[h] {
			t.Fatalf("Contains(%d) = %v, want %v", h, s.Contains(h), want[h])
		}
	}
	for h := uint64(0); h <= 9010; h++ {
		probe(h)
	}
	for _, h := range hashes {
		probe(h - 1)
		probe(h + 1)
	}
}

func TestIndexMatchTokensNilSafe(t *testing.T) {
	var s *IndexSnapshot
	if s.MatchTokens(SyntheticChain(1, 0, 3)) != 0 || s.Blocks() != 0 || s.Contains(1) {
		t.Fatal("nil snapshot must match nothing")
	}
}

// fullCache returns a manager whose 8,192-block HBM tier (the per-replica
// cache of perfbench's session_prefix workload) is filled with unpinned
// prefix blocks, and the chains that filled it.
func fullCache(b *testing.B) (*Manager, [][]uint64) {
	b.Helper()
	m, err := NewManager(1<<17, DefaultBlockTokens)
	if err != nil {
		b.Fatal(err)
	}
	var chains [][]uint64
	for key := uint64(1); m.FreeTokens() > 0; key++ {
		chain := SyntheticChain(key, 0, 64)
		m.AcquirePrefix(key, chain)
		m.Release(key)
		chains = append(chains, chain)
	}
	return m, chains
}

// indexSink keeps benchmark results live.
var indexSink *IndexSnapshot

// BenchmarkExportIndex is one gateway admit cycle on a full cache: a
// 30-block admission that evicts 30 cold blocks and creates 30, then the
// export Core.Publish makes of the changed membership.
func BenchmarkExportIndex(b *testing.B) {
	m, _ := fullCache(b)
	indexSink = m.ExportIndex()
	// Fresh chains cycle through a ring far larger than the cache, so every
	// admission misses and creates all of its blocks.
	chains := make([][]uint64, 1024)
	for i := range chains {
		chains[i] = SyntheticChain(1<<32+uint64(i), 0, 30)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i) + 1<<40
		m.AcquirePrefix(id, chains[i%len(chains)])
		m.Release(id)
		indexSink = m.ExportIndex()
	}
}

var matchSink int

// BenchmarkIndexMatchTokens probes a 150-block resident chain against a
// snapshot published from a full cache: one replica's share of a routing
// decision's prefix probe.
func BenchmarkIndexMatchTokens(b *testing.B) {
	m, _ := fullCache(b)
	chain := SyntheticChain(1<<33, 0, 150)
	m.AcquirePrefix(1<<40, chain)
	snap := m.ExportIndex()
	if snap.MatchTokens(chain) != 150*DefaultBlockTokens {
		b.Fatal("chain not resident")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matchSink = snap.MatchTokens(chain)
	}
}
