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

func TestIndexMatchTokensNilSafe(t *testing.T) {
	var s *IndexSnapshot
	if s.MatchTokens(SyntheticChain(1, 0, 3)) != 0 || s.Blocks() != 0 || s.Contains(1) {
		t.Fatal("nil snapshot must match nothing")
	}
}
