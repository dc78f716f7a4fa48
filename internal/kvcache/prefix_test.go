package kvcache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustTiered(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := NewTiered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAcquirePrefixSharing(t *testing.T) {
	m := mustManager(t, 1600, 16) // 100 blocks
	chain := SyntheticChain(7, 0, 8)

	// First request creates the blocks: no hits, everything cached.
	res := m.AcquirePrefix(1, chain)
	if res.HitTokens != 0 || res.CachedTokens != 8*16 {
		t.Fatalf("first acquire: %+v", res)
	}
	m.checkInvariant()

	// Second request with the same chain hits every block.
	res = m.AcquirePrefix(2, chain)
	if res.HitTokens != 8*16 || res.ReloadTokens != 0 {
		t.Fatalf("second acquire: %+v", res)
	}
	// Shared blocks are counted once: 8 blocks total, not 16.
	if hbm, _ := m.CachedBlocks(); hbm != 8 {
		t.Fatalf("cached blocks = %d, want 8", hbm)
	}
	if m.FreeTokens() != 1600-8*16 {
		t.Fatalf("free = %d", m.FreeTokens())
	}

	// Divergent chain: shares the first 5 blocks, then copy-on-write.
	div := append(append([]uint64(nil), chain[:5]...), SyntheticChain(9, 0, 3)...)
	res = m.AcquirePrefix(3, div)
	if res.HitTokens != 5*16 {
		t.Fatalf("divergent acquire hit %d tokens", res.HitTokens)
	}
	if hbm, _ := m.CachedBlocks(); hbm != 11 {
		t.Fatalf("cached blocks after divergence = %d, want 11", hbm)
	}
	m.checkInvariant()

	// Releasing all pins keeps the blocks resident for reuse.
	m.Release(1)
	m.Release(2)
	m.Release(3)
	if hbm, _ := m.CachedBlocks(); hbm != 11 {
		t.Fatalf("cached blocks after release = %d, want 11", hbm)
	}
	if hit, _ := m.Match(chain); hit != 8*16 {
		t.Fatalf("match after release = %d", hit)
	}
	m.checkInvariant()

	// Double acquire for one id is a bug in the caller.
	m.AcquirePrefix(4, chain)
	defer func() {
		if recover() == nil {
			t.Error("double acquire did not panic")
		}
	}()
	m.AcquirePrefix(4, chain)
}

func TestTierDemotionAndReload(t *testing.T) {
	// 4 HBM blocks, 2 DRAM blocks.
	m := mustTiered(t, Config{CapacityTokens: 64, DRAMTokens: 32})
	chain := SyntheticChain(1, 0, 4)
	m.AcquirePrefix(1, chain)
	m.Release(1)

	// Release queued the chain tail-first, so a private allocation that
	// reclaims 3 cached blocks demotes chain[3] and chain[2] to DRAM, and
	// the third, chain[1], overflows DRAM and evicts chain[3].
	if !m.Grow(2, 48) {
		t.Fatal("grow over cache failed")
	}
	m.checkInvariant()
	if d := m.Demotions(); d != 3 {
		t.Errorf("demotions = %d, want 3", d)
	}
	if _, dram := m.TierEvictions(); dram != 1 {
		t.Errorf("dram evictions = %d, want 1", dram)
	}
	// The head survives: chain[0] in HBM, chain[1] and chain[2] in DRAM.
	if hit, reload := m.Match(chain); hit != 48 || reload != 32 {
		t.Errorf("match after eviction = (%d, %d) tokens, want (48, 32)", hit, reload)
	}

	// Re-acquiring once room frees up reloads the demoted head blocks and
	// recomputes only the evicted tail.
	m.Release(2)
	res := m.AcquirePrefix(3, chain)
	if res.HitTokens != 48 || res.ReloadTokens != 32 || res.CachedTokens != 64 {
		t.Fatalf("re-acquire: %+v", res)
	}
	m.Release(3)
	m.checkInvariant()
}

func TestDRAMReloadCharged(t *testing.T) {
	m := mustTiered(t, Config{CapacityTokens: 64, DRAMTokens: 64})
	chain := SyntheticChain(1, 0, 2)
	m.AcquirePrefix(1, chain)
	m.Release(1)
	// Force both cached blocks to DRAM.
	if !m.Grow(2, 64) {
		t.Fatal("grow failed")
	}
	if d := m.Demotions(); d != 2 {
		t.Fatalf("demotions = %d, want 2", d)
	}
	m.Release(2)

	hit, reload := m.Match(chain)
	if hit != 32 || reload != 32 {
		t.Fatalf("match = (%d, %d), want (32, 32)", hit, reload)
	}
	res := m.AcquirePrefix(3, chain)
	if res.HitTokens != 32 || res.ReloadTokens != 32 {
		t.Fatalf("acquire from DRAM: %+v", res)
	}
	// Promoted blocks are HBM again; a fresh match is reload-free.
	if _, r := m.Match(chain); r != 0 {
		t.Errorf("reload tokens after promotion = %d", r)
	}
	if m.PrefixReloadTokens() != 32 {
		t.Errorf("lifetime reload tokens = %d", m.PrefixReloadTokens())
	}
	sec := m.ReloadSeconds(32)
	if want := 32.0 / DefaultReloadTokensPerSec; sec != want {
		t.Errorf("reload seconds = %v, want %v", sec, want)
	}
	m.Release(3)
	m.checkInvariant()
}

func TestHBMEvictionWithoutDRAMTier(t *testing.T) {
	m := mustManager(t, 64, 16)
	m.AcquirePrefix(1, SyntheticChain(1, 0, 4))
	m.Release(1)
	if !m.Grow(2, 64) {
		t.Fatal("grow failed")
	}
	hbm, dram := m.TierEvictions()
	if hbm != 4 || dram != 0 {
		t.Errorf("evictions = (%d, %d), want (4, 0)", hbm, dram)
	}
	if h, d := m.CachedBlocks(); h != 0 || d != 0 {
		t.Errorf("cached blocks = (%d, %d)", h, d)
	}
	m.checkInvariant()
}

// Regression: PeakUtilization accumulates across a manager's lifetime, so a
// sweep harness reusing one manager must get a clean high-water mark (and
// clean statistics) from Reset. Before Reset existed the second repetition
// inherited the first one's peak.
func TestResetClearsPeakAndStats(t *testing.T) {
	m := mustTiered(t, Config{CapacityTokens: 160, DRAMTokens: 160})
	m.Grow(1, 160)
	m.Release(1)
	if m.PeakUtilization() != 1 {
		t.Fatalf("peak = %v, want 1", m.PeakUtilization())
	}
	m.AcquirePrefix(2, SyntheticChain(3, 0, 2))
	m.Release(2)

	m.Reset()
	if m.PeakUtilization() != 0 {
		t.Errorf("peak after Reset = %v, want 0", m.PeakUtilization())
	}
	if m.FreeTokens() != 160 || m.Holders() != 0 {
		t.Errorf("after Reset: free %d holders %d", m.FreeTokens(), m.Holders())
	}
	if h, d := m.CachedBlocks(); h != 0 || d != 0 {
		t.Errorf("cached blocks after Reset = (%d, %d)", h, d)
	}
	if m.PrefixHitTokens() != 0 || m.PrefixReloadTokens() != 0 || m.Demotions() != 0 {
		t.Error("statistics survived Reset")
	}
	m.checkInvariant()

	// The manager is fully usable after Reset.
	if res := m.AcquirePrefix(1, SyntheticChain(3, 0, 2)); res.HitTokens != 0 {
		t.Errorf("cache content survived Reset: %+v", res)
	}
	m.Grow(1, 80)
	if m.PeakUtilization() == 0 {
		t.Error("peak not tracked after Reset")
	}
}

// Property: with no shared prefixes (every chain distinct), the prefix-tree
// manager accounts for memory exactly like the flat allocator — a chain's
// pinned blocks plus Grow's private blocks equal the flat allocation, and
// unpinned leftover cache is always reclaimable, so flat free capacity
// equals prefix-tree reclaimable capacity after every operation.
func TestPrefixFlatEquivalenceProperty(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		flat, err := NewManager(10000, 16)
		if err != nil {
			return false
		}
		pref, err := NewManager(10000, 16)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		live := map[uint64]bool{}
		var chainKey uint64
		for _, op := range ops {
			id := uint64(op % 32)
			switch {
			case rng.Intn(3) == 0 && live[id]:
				flat.Release(id)
				pref.Release(id)
				delete(live, id)
			case live[id]:
				// Mid-flight extension: no new chain, plain Grow on both.
				tokens := int(op % 4000)
				if flat.Grow(id, tokens) != pref.Grow(id, tokens) {
					return false
				}
			default:
				// Admission: a distinct chain per request, then Grow to the
				// full context. The flat manager just Grows.
				tokens := int(op % 4000)
				chainKey++
				chain := SyntheticChain(chainKey, 0, ChainBlocks(tokens, 16))
				pref.AcquirePrefix(id, chain)
				okFlat := flat.Grow(id, tokens)
				okPref := pref.Grow(id, tokens)
				if okFlat != okPref {
					return false
				}
				if !okPref {
					pref.Release(id) // drop the partial pin, like a rejected admit
				} else if tokens > 0 {
					live[id] = true
				}
			}
			if pref.ReclaimableTokens() != flat.FreeTokens() {
				return false
			}
			for lid := range live {
				if flat.HeldTokens(lid) != pref.HeldTokens(lid) {
					return false
				}
			}
			flat.checkInvariant()
			pref.checkInvariant()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMatchStopsAtFirstMiss(t *testing.T) {
	m := mustManager(t, 1600, 16)
	chain := SyntheticChain(5, 0, 6)
	m.AcquirePrefix(1, chain[:3])
	// Even though blocks 0-2 are cached, a chain that diverges at 0 misses.
	other := SyntheticChain(6, 0, 6)
	if hit, _ := m.Match(other); hit != 0 {
		t.Errorf("disjoint chain matched %d tokens", hit)
	}
	if hit, _ := m.Match(chain); hit != 3*16 {
		t.Errorf("prefix match = %d, want %d", hit, 3*16)
	}
	if m.MatchTokens(chain) != 3*16 {
		t.Error("MatchTokens disagrees with Match")
	}
}

func TestSyntheticChainProperties(t *testing.T) {
	a := SyntheticChain(1, 0, 10)
	b := SyntheticChain(1, 0, 12)
	if !reflect.DeepEqual(a, b[:10]) {
		t.Error("longer chain of the same key is not an extension")
	}
	if reflect.DeepEqual(a, SyntheticChain(2, 0, 10)) {
		t.Error("distinct keys collide")
	}
	if reflect.DeepEqual(a, SyntheticChain(1, 16, 10)) {
		t.Error("slid window hashes like the unslid one")
	}
	if SyntheticChain(1, 0, 0) != nil {
		t.Error("empty chain not nil")
	}
	if ChainBlocks(0, 16) != 0 || ChainBlocks(1, 16) != 0 {
		t.Error("degenerate prompts should have no shareable blocks")
	}
	// A 33-token prompt shares two full blocks; token 33 stays for prefill.
	if got := ChainBlocks(33, 16); got != 2 {
		t.Errorf("ChainBlocks(33, 16) = %d, want 2", got)
	}
	// A prompt that is an exact block multiple keeps its last token out.
	if got := ChainBlocks(32, 16); got != 1 {
		t.Errorf("ChainBlocks(32, 16) = %d, want 1", got)
	}
}

func TestChainWireFormat(t *testing.T) {
	chain := SyntheticChain(42, 0, 5)
	got, err := ParseChain(FormatChain(chain))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, chain) {
		t.Errorf("round trip: %x != %x", got, chain)
	}
	if c, err := ParseChain(""); err != nil || c != nil {
		t.Error("empty string should parse to nil chain")
	}
	for _, bad := range []string{"-", "a-", "-a", "xyz", "0123456789abcdef0", "a--b"} {
		if _, err := ParseChain(bad); err == nil {
			t.Errorf("ParseChain(%q) accepted", bad)
		}
	}
}

func BenchmarkAcquireReleaseShared(b *testing.B) {
	m, _ := NewManager(1<<20, 16)
	chain := SyntheticChain(1, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := uint64(i%64) + 1
		m.AcquirePrefix(id, chain)
		m.Release(id)
	}
}

func BenchmarkMatch(b *testing.B) {
	m, _ := NewManager(1<<20, 16)
	chain := SyntheticChain(1, 0, 64)
	m.AcquirePrefix(1, chain)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.MatchTokens(chain)
	}
}

// TestPromoteSelfEviction: promoting a DRAM block must make room in HBM
// first, and when that demotion overflows a DRAM tier whose coldest block
// is the one being promoted, the block is gone — the match stops there
// rather than pinning a block the cache no longer holds.
func TestPromoteSelfEviction(t *testing.T) {
	m := mustTiered(t, Config{CapacityTokens: 2 * 16, DRAMTokens: 16})
	a, b := SyntheticChain(1, 0, 1), SyntheticChain(2, 0, 1)
	m.AcquirePrefix(1, a)
	m.Release(1)
	m.AcquirePrefix(2, b)
	m.Release(2)
	if !m.Grow(3, 16) { // demotes a, filling DRAM; HBM holds b and id 3
		t.Fatal("grow failed")
	}
	res := m.AcquirePrefix(4, a) // room for a demotes b, which evicts a
	m.checkInvariant()
	if res.HitTokens != 0 || res.ReloadTokens != 0 {
		t.Fatalf("credited %d hit, %d reload tokens for an evicted block", res.HitTokens, res.ReloadTokens)
	}
	if hbm, dram := m.CachedBlocks(); hbm != 1 || dram != 1 {
		t.Fatalf("cached %d hbm, %d dram blocks, want a re-created in HBM and b in DRAM", hbm, dram)
	}
	if _, d := m.TierEvictions(); d != 1 {
		t.Fatalf("%d DRAM evictions, want 1", d)
	}
}
