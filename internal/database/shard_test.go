package database

import (
	"math/rand"
	"sort"
	"testing"
)

func shardTestRelations(seed int64, n int) (*Relation, *Relation) {
	rng := rand.New(rand.NewSource(seed))
	r := NewRelation("R", 2)
	s := NewRelation("S", 2)
	for i := 0; i < n; i++ {
		r.Insert(Tuple{Value(rng.Intn(n / 2)), Value(i)})
		s.Insert(Tuple{Value(rng.Intn(n / 2)), Value(rng.Intn(n))})
	}
	return r, s
}

func TestShardCount(t *testing.T) {
	for k, want := range map[int]int{-3: 1, 0: 1, 1: 1, 2: 2, 3: 4, 8: 8, 9: 16, 1 << 17: 1 << 16} {
		if got := ShardCount(k); got != want {
			t.Fatalf("ShardCount(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestShardPartition(t *testing.T) {
	r, _ := shardTestRelations(1, 2000)
	cols := []int{0}
	const k = 8
	shards := Shard(r, cols, k)
	if len(shards) != k {
		t.Fatalf("got %d shards, want %d", len(shards), k)
	}
	total := 0
	for si, sh := range shards {
		total += sh.Len()
		prev := Value(-1)
		for _, tu := range sh.Tuples {
			// Routing: the tuple's key fingerprint must route here — the
			// same uint32(fp)&mask rule the sharded index builds use.
			if got := uint32(tu.KeyHash(cols)) & (k - 1); got != uint32(si) {
				t.Fatalf("tuple %v routed to shard %d, lives in %d", tu, got, si)
			}
			// Base order preserved: the second column is the insert ordinal.
			if tu[1] <= prev {
				t.Fatalf("shard %d reordered tuples: %v after %d", si, tu, prev)
			}
			prev = tu[1]
		}
	}
	if total != r.Len() {
		t.Fatalf("shards hold %d tuples, relation holds %d", total, r.Len())
	}
	// Equal keys always land together.
	where := map[Value]int{}
	for si, sh := range shards {
		for _, tu := range sh.Tuples {
			if prev, ok := where[tu[0]]; ok && prev != si {
				t.Fatalf("key %d split across shards %d and %d", tu[0], prev, si)
			}
			where[tu[0]] = si
		}
	}
}

// TestShardMatchesIndexShards pins the routing contract: Shard's
// partition is exactly the row ownership of a parallel index build with
// the same fan-out.
func TestShardMatchesIndexShards(t *testing.T) {
	r, _ := shardTestRelations(2, 4000)
	cols := []int{0}
	ix := buildIndex(r.Tuples, cols, r.Slab(), 4, nil)
	k := int(ix.mask) + 1
	parts := ShardRowIDs(r, cols, k)
	if len(parts) != k {
		t.Fatalf("ShardRowIDs returned %d parts for mask %d", len(parts), ix.mask)
	}
	shards := *ix.shards.Load()
	for si := range shards {
		got := append([]int32(nil), shards[si].rows...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		want := parts[si]
		if len(got) != len(want) {
			t.Fatalf("shard %d: index owns %d rows, Shard assigns %d", si, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shard %d: row sets differ at %d: %d vs %d", si, i, got[i], want[i])
			}
		}
	}
}

func sortedTuples(r *Relation) []Tuple {
	out := make([]Tuple, len(r.Tuples))
	copy(out, r.Tuples)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

func TestSemijoinShardedMatches(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r, s := shardTestRelations(seed, 1000)
		want := sortedTuples(Semijoin(r, []int{0}, s, []int{0}))
		for _, k := range []int{1, 2, 8} {
			got := sortedTuples(SemijoinSharded(r, []int{0}, s, []int{0}, k))
			if len(got) != len(want) {
				t.Fatalf("seed %d k %d: %d tuples, want %d", seed, k, len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("seed %d k %d: tuple %d: %v != %v", seed, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSemijoinShardedForcedCollisions(t *testing.T) {
	// Under a degraded two-fingerprint hash every shard>2 is empty and all
	// keys pile into two buckets — the multiset answer must not change.
	restore := SetIndexHashForTesting(func(tu Tuple, cols []int) uint64 {
		return uint64(tu[cols[0]]) & 1
	})
	defer restore()
	r, s := shardTestRelations(3, 600)
	want := sortedTuples(Semijoin(r, []int{0}, s, []int{0}))
	got := sortedTuples(SemijoinSharded(r, []int{0}, s, []int{0}, 8))
	if len(got) != len(want) {
		t.Fatalf("%d tuples, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("tuple %d: %v != %v", i, got[i], want[i])
		}
	}
}
