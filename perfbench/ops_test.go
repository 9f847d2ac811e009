package main

import (
	"fmt"
	"slices"
	"testing"
)

// TestLibOpsFixedSet pins the library op-set contract: a seed orders the
// workload's plan seeds but never changes which ones run.
func TestLibOpsFixedSet(t *testing.T) {
	a := libOps(eagleShelf, 5, 1)
	b := libOps(eagleShelf, 5, 2)
	if slices.Equal(a, b) {
		t.Fatalf("seeds 1 and 2 gave the same order %v", a)
	}
	slices.Sort(a)
	slices.Sort(b)
	if !slices.Equal(a, b) {
		t.Fatalf("seeds 1 and 2 gave different op sets: %v vs %v", a, b)
	}
	if c := libOps(eagleShelf, 5, 1); !slices.Equal(c, libOps(eagleShelf, 5, 1)) {
		t.Fatal("the same seed gave two orders")
	}
}

// TestServiceOpsFixedMultiset pins the service op contract: the multiset of
// fresh requests and repeats is identical for every seed, every client
// starts fresh, one op in freshEvery is fresh, and each repeat resends an
// earlier fresh op of the same client.
func TestServiceOpsFixedMultiset(t *testing.T) {
	n := serviceOpCount(2)
	multiset := func(seed uint64) []string {
		var out []string
		for c, seq := range serviceOps(n, seed) {
			if len(seq) != n/serviceClients {
				t.Fatalf("seed %d client %d: %d ops, want %d", seed, c, len(seq), n/serviceClients)
			}
			if seq[0].repeatOf >= 0 {
				t.Fatalf("seed %d client %d starts with a repeat", seed, c)
			}
			fresh := 0
			for i, op := range seq {
				if op.repeatOf < 0 {
					fresh++
				} else if op.repeatOf >= i || seq[op.repeatOf].repeatOf >= 0 || seq[op.repeatOf].req != op.req {
					t.Fatalf("seed %d client %d op %d repeats %d, not an earlier fresh op", seed, c, i, op.repeatOf)
				}
				out = append(out, fmt.Sprintf("%s fresh=%v", op.req.key(), op.repeatOf < 0))
			}
			if fresh*freshEvery != len(seq) {
				t.Fatalf("seed %d client %d: %d fresh of %d", seed, c, fresh, len(seq))
			}
		}
		slices.Sort(out)
		return out
	}
	if !slices.Equal(multiset(1), multiset(99)) {
		t.Fatal("seeds 1 and 99 gave different op multisets")
	}
}
