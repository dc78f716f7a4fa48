package cluster

import (
	"sync/atomic"

	"qoserve/internal/replica"
	"qoserve/internal/request"
)

// Balancer routes an arriving request to one replica of a cluster. The
// paper's deployments use round-robin (§4.1.1); least-loaded routing is
// provided as an extension ablation (see the "lb" experiment).
type Balancer interface {
	// Pick returns the index of the replica that should serve r.
	Pick(replicas []*replica.Replica, r *request.Request) int
}

// GatewayBalancer is the index-based routing core shared by the simulated
// Cluster and the live serving gateway (internal/server): it picks one of n
// live targets without materializing a target slice. load reports the
// current number of unfinished requests routed to target i; balancers that
// do not consult load ignore it. Implementations document whether they are
// safe for concurrent pickers.
type GatewayBalancer interface {
	// PickIndex returns a target in [0, n). n is always >= 1.
	PickIndex(n int, load func(int) int) int
}

// RoundRobin cycles through replicas in order, the paper's default.
type RoundRobin struct {
	next int
}

// Pick returns successive indices modulo the cluster size. The slice may
// shrink between calls (health-aware routing passes only the live
// replicas), so the cursor is clamped before use rather than trusted from
// the previous call.
func (b *RoundRobin) Pick(replicas []*replica.Replica, _ *request.Request) int {
	if b.next >= len(replicas) {
		b.next = 0
	}
	i := b.next
	b.next = (b.next + 1) % len(replicas)
	return i
}

// AtomicRoundRobin is a lock-free round-robin cursor, safe for concurrent
// pickers. The live gateway uses it so parallel submitters never serialize
// on routing; the modulo tolerates a shrinking target count the same way
// RoundRobin's clamp does.
type AtomicRoundRobin struct {
	cursor atomic.Uint64
}

// PickIndex returns successive indices modulo n.
func (b *AtomicRoundRobin) PickIndex(n int, _ func(int) int) int {
	if n <= 1 {
		return 0
	}
	return int((b.cursor.Add(1) - 1) % uint64(n))
}

// LeastLoaded picks the target with the fewest unfinished requests, a
// join-shortest-queue flavour that reacts to skew round-robin cannot see
// (e.g. one replica stuck with several huge prompts). Lowest index wins
// ties, keeping simulated runs deterministic. Stateless, so safe for
// concurrent pickers as long as the load probe is.
type LeastLoaded struct{}

// PickIndex scans all n loads and returns the minimum.
//
//qoserve:hotpath
func (LeastLoaded) PickIndex(n int, load func(int) int) int {
	best, bestLoad := 0, int(^uint(0)>>1)
	for i := 0; i < n; i++ {
		if l := load(i); l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// LeastPending routes to the replica whose scheduler currently holds the
// fewest unfinished requests; the simulation-side adapter over LeastLoaded.
type LeastPending struct{}

// Pick returns the index of the least-loaded replica (lowest index wins
// ties, keeping the simulation deterministic).
func (LeastPending) Pick(replicas []*replica.Replica, _ *request.Request) int {
	return LeastLoaded{}.PickIndex(len(replicas), func(i int) int {
		return replicas[i].Scheduler().Pending()
	})
}

// PrefixRouter is the prefix-aware extension of GatewayBalancer: match
// reports how many prompt tokens of the arriving request's prefix chain are
// cached on target i. Gateways probe each replica's KV manager for the
// match score; requests without a chain fall back to plain PickIndex.
type PrefixRouter interface {
	GatewayBalancer
	// PickPrefix returns a target in [0, n) for a request whose longest
	// cached prefix on target i is match(i) tokens.
	PickPrefix(n int, load func(int) int, match func(int) int) int
}

// PrefixAffinity routes each request to the replica holding the longest
// cached prefix of its prompt — llm-d's "precise prefix-cache aware
// routing" — so multi-turn sessions keep landing where their context is
// already resident. When no replica's match reaches MinMatchTokens the
// expected prefill saving cannot outweigh load skew, so the request falls
// back to the Fallback balancer (LeastLoaded if nil). Highest match wins;
// load breaks match ties, then lowest index, keeping simulated runs
// deterministic. Stateless apart from the fallback, so safe for concurrent
// pickers as long as the probes and the fallback are.
type PrefixAffinity struct {
	// MinMatchTokens is the smallest cached-prefix match worth chasing;
	// zero means DefaultMinMatchTokens.
	MinMatchTokens int
	// Fallback routes requests below the threshold (and chainless ones).
	// Nil means LeastLoaded.
	Fallback GatewayBalancer
}

// DefaultMinMatchTokens is the default affinity threshold: four blocks of
// cached prefix, roughly the point where skipped prefill outweighs the
// risk of piling sessions onto one replica.
const DefaultMinMatchTokens = 4 * 16

// PickIndex routes a chainless request via the fallback balancer.
//
//qoserve:hotpath
func (b *PrefixAffinity) PickIndex(n int, load func(int) int) int {
	if b.Fallback != nil {
		return b.Fallback.PickIndex(n, load)
	}
	return LeastLoaded{}.PickIndex(n, load)
}

// PickPrefix returns the target with the longest cached prefix, or the
// fallback pick when every match is below the threshold. Alloc-free and
// lock-free: with a global-index match probe the whole pick is reads over
// published snapshots (see TestPrefixPickSteadyStateAllocFree).
//
//qoserve:hotpath
func (b *PrefixAffinity) PickPrefix(n int, load func(int) int, match func(int) int) int {
	min := b.MinMatchTokens
	if min <= 0 {
		min = DefaultMinMatchTokens
	}
	best, bestMatch, bestLoad := -1, 0, 0
	for i := 0; i < n; i++ {
		m := match(i)
		if m < min || m < bestMatch {
			continue
		}
		l := load(i)
		if best == -1 || m > bestMatch || l < bestLoad {
			best, bestMatch, bestLoad = i, m, l
		}
	}
	if best == -1 {
		return b.PickIndex(n, load)
	}
	return best
}
