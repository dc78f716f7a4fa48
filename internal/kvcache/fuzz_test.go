package kvcache

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseChain exercises the gateway's prefix_chain wire parser with
// hostile input. Accepted chains must be bounded, and formatting an accepted
// chain must parse back to the identical hashes (the format is canonical
// even though the parser tolerates leading zeros).
func FuzzParseChain(f *testing.F) {
	f.Add("")
	f.Add("0")
	f.Add("a-b-c")
	f.Add("ffffffffffffffff")
	f.Add(FormatChain(SyntheticChain(7, 0, 8)))
	f.Add("deadbeef-00ff-1")
	f.Add("-")
	f.Add("g")
	f.Add("0123456789abcdef0")
	// Fast-parser branch seeds: mixed-case hex, rejected prefixes/signs the
	// stdlib parser also refuses, dangling separators, and a near-limit chain.
	f.Add("DeadBEEF-AB")
	f.Add("0x1f")
	f.Add("+1")
	f.Add("a--b")
	f.Add("a-")
	f.Add("1_0")
	f.Add("ffff\xffff")
	f.Add(FormatChain(SyntheticChain(11, 32, MaxChainBlocks)))
	f.Fuzz(func(t *testing.T, s string) {
		chain, err := ParseChain(s)
		ref, refErr := splitParseChain(s)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("parser disagreement on %q: fast err=%v, reference err=%v", s, err, refErr)
		}
		if err != nil {
			if err.Error() != refErr.Error() {
				t.Fatalf("error text drifted on %q: fast %q, reference %q", s, err, refErr)
			}
			return
		}
		if !reflect.DeepEqual(chain, ref) {
			t.Fatalf("parser disagreement on %q: fast %x, reference %x", s, chain, ref)
		}
		if len(chain) > MaxChainBlocks {
			t.Fatalf("accepted chain of %d blocks", len(chain))
		}
		if s == "" {
			if chain != nil {
				t.Fatal("empty input parsed to non-nil chain")
			}
			return
		}
		round, err := ParseChain(FormatChain(chain))
		if err != nil {
			t.Fatalf("canonical form rejected: %v", err)
		}
		if !reflect.DeepEqual(round, chain) {
			t.Fatalf("round trip changed chain: %x != %x", round, chain)
		}
		if got, want := string(AppendChain(nil, chain)), FormatChain(chain); got != want {
			t.Fatalf("AppendChain diverged from FormatChain: %q != %q", got, want)
		}
	})
}

// splitParseChain is the original strings.Split-based chain parser, kept as
// the fuzz oracle for the alloc-free fast path in ParseChainInto: both must
// accept the same inputs, produce the same hashes, and emit the same error
// text.
func splitParseChain(s string) ([]uint64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, "-")
	if len(parts) > MaxChainBlocks {
		return nil, fmt.Errorf("kvcache: chain of %d blocks exceeds %d", len(parts), MaxChainBlocks)
	}
	chain := make([]uint64, len(parts))
	for i, p := range parts {
		if p == "" || len(p) > 16 {
			return nil, fmt.Errorf("kvcache: chain hash %q at position %d", p, i)
		}
		h, err := strconv.ParseUint(p, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("kvcache: chain hash %q at position %d", p, i)
		}
		chain[i] = h
	}
	return chain, nil
}
