package kvcache

import (
	"fmt"
	"math/rand"
	"testing"
)

// indexRef is what a snapshot must answer, taken from the manager's own
// state at export.
type indexRef struct {
	snap      *IndexSnapshot
	members   map[uint64]bool
	hbm, dram int
}

func refOf(m *Manager, snap *IndexSnapshot) indexRef {
	r := indexRef{snap: snap, members: make(map[uint64]bool, len(m.nodes))}
	for h, b := range m.nodes {
		r.members[h] = true
		if b.dram {
			r.dram++
		} else {
			r.hbm++
		}
	}
	return r
}

// check compares the snapshot with the reference on every hash of every
// chain in the universe, plus the reference's own members.
func (r indexRef) check(t *testing.T, blockTokens int, universe [][]uint64, what string) {
	t.Helper()
	s := r.snap
	if s.Blocks() != len(r.members) || s.HBMBlocks != r.hbm || s.DRAMBlocks != r.dram {
		t.Fatalf("%s: snapshot %d blocks (%d hbm, %d dram), reference %d (%d hbm, %d dram)",
			what, s.Blocks(), s.HBMBlocks, s.DRAMBlocks, len(r.members), r.hbm, r.dram)
	}
	for h := range r.members {
		if !s.Contains(h) {
			t.Fatalf("%s: resident hash %x missing", what, h)
		}
	}
	for _, chain := range universe {
		for _, h := range chain {
			if s.Contains(h) != r.members[h] {
				t.Fatalf("%s: Contains(%x) = %v, reference %v", what, h, s.Contains(h), r.members[h])
			}
		}
		want := 0
		for want < len(chain) && r.members[chain[want]] {
			want++
		}
		if got := s.MatchTokens(chain); got != want*blockTokens {
			t.Fatalf("%s: MatchTokens = %d, reference %d", what, got, want*blockTokens)
		}
	}
}

// TestSnapshotsExactAndImmutable drives small managers, with and without a
// DRAM tier, through random admissions, releases, growth and resets,
// exporting at random points. Every snapshot must match the manager's
// membership at its export, and every earlier snapshot must keep
// answering as it did then: exports share unchanged shards, so an edit
// that reached a published shard would show here.
func TestSnapshotsExactAndImmutable(t *testing.T) {
	for _, dram := range []int{0, 8} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			// 24 HBM blocks against a universe of ~150 distinct hashes:
			// most admissions demote or evict.
			m := mustTiered(t, Config{CapacityTokens: 24 * 16, DRAMTokens: dram * 16})
			var universe [][]uint64
			for key := uint64(1); key <= 10; key++ {
				full := SyntheticChain(uint64(seed)<<8|key, 0, 12)
				universe = append(universe, full)
				// A divergent branch sharing the first blocks.
				branch := append([]uint64(nil), full[:4]...)
				branch = append(branch, SyntheticChain(key<<20, 0, 4)...)
				universe = append(universe, branch)
			}
			var refs []indexRef
			var live []uint64
			nextID := uint64(1)
			evicted := func() uint64 { h, d := m.TierEvictions(); return h + d }
			evictedBeforeReset := uint64(0)
			for step := 0; step < 400; step++ {
				switch p := rng.Intn(100); {
				case p < 40:
					chain := universe[rng.Intn(len(universe))]
					id := nextID
					nextID++
					m.AcquirePrefix(id, chain[:1+rng.Intn(len(chain))])
					live = append(live, id)
				case p < 65 && len(live) > 0:
					i := rng.Intn(len(live))
					m.Release(live[i])
					live = append(live[:i], live[i+1:]...)
				case p < 80:
					id := nextID
					if len(live) > 0 && rng.Intn(2) == 0 {
						id = live[rng.Intn(len(live))]
					} else {
						nextID++
						live = append(live, id)
					}
					m.Grow(id, 16*(1+rng.Intn(12)))
				case p < 82:
					evictedBeforeReset += evicted()
					m.Reset()
					live = live[:0]
				case p < 100:
					snap := m.ExportIndex()
					refs = append(refs, refOf(m, snap))
					for i, r := range refs {
						r.check(t, m.BlockTokens(), universe, fmt.Sprintf("dram %d seed %d step %d: snapshot %d of %d", dram, seed, step, i+1, len(refs)))
					}
				}
				m.checkInvariant()
			}
			if len(refs) < 20 {
				t.Fatalf("dram %d seed %d: only %d exports", dram, seed, len(refs))
			}
			if evictedBeforeReset+evicted() == 0 {
				t.Fatalf("dram %d seed %d: nothing evicted", dram, seed)
			}
		}
	}
}
