package database

// In-package tests for the batch kernels: the zero-allocation contract of
// the warm batched probe path, correctness under an injected degraded
// hash (collision handling must survive batching), bit-identical
// fingerprints between the slab kernel and the scalar hash, and Compact's
// waste reclamation under sustained churn.

import (
	"math/rand"
	"testing"
)

// batchRelation builds a deduplicated random relation.
func batchRelation(rng *rand.Rand, name string, arity, n, dom int) *Relation {
	r := NewRelation(name, arity)
	for i := 0; i < n; i++ {
		t := make(Tuple, arity)
		for j := range t {
			t[j] = Value(1 + rng.Intn(dom))
		}
		r.Insert(t)
	}
	r.Dedup()
	return r
}

// TestHashColsMatchesKeyHash pins the batched fingerprints to the scalar
// Tuple.KeyHash bit for bit: HashCols for every key width, and the inline
// hash resolve computes for one- and two-column keys.
func TestHashColsMatchesKeyHash(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, arity := range []int{1, 2, 3, 4} {
		r := batchRelation(rng, "R", arity, 200, 16)
		sl := r.Slab()
		sc := GetScratch()
		for k := 1; k <= arity; k++ {
			cols := rng.Perm(arity)[:k]
			ids := sc.Iota(r.Len())
			dst := make([]uint64, r.Len())
			sl.HashCols(cols, ids, dst)
			for i, tu := range r.Tuples {
				if want := tu.KeyHash(cols); dst[i] != want {
					t.Fatalf("arity %d cols %v row %d: HashCols %x, KeyHash %x", arity, cols, i, dst[i], want)
				}
			}
			if k > 2 {
				continue
			}
			ix := r.IndexOn(cols)
			if ix.Buckets() < 2 {
				t.Fatalf("arity %d cols %v: %d keys, the one-key path hashes nothing", arity, cols, ix.Buckets())
			}
			run := ids[:min(len(ids), probeBatch)]
			ix.resolve(*ix.shards.Load(), sl, cols, run, sc)
			for i, id := range run {
				if want := r.Tuples[id].KeyHash(cols); sc.fps[i] != want {
					t.Fatalf("arity %d cols %v row %d: resolve %x, KeyHash %x", arity, cols, id, sc.fps[i], want)
				}
			}
		}
		sc.Release()
	}
}

// TestBatchedProbeAllocs pins the warm batched probe path allocation-free:
// with the scratch buffers grown, ContainsBatch and LookupBatch must not
// allocate.
func TestBatchedProbeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := batchRelation(rng, "R", 2, 4096, 512)
	s := batchRelation(rng, "S", 2, 4096, 512)
	ix := buildIndex(s.Tuples, []int{0}, s.Slab(), 1, nil)
	sl := r.Slab()
	cols := []int{1}
	sc := GetScratch()
	defer sc.Release()
	ix.ContainsBatch(sl, cols, sc.Iota(r.Len()), sc) // warm the buffers
	allocs := testing.AllocsPerRun(50, func() {
		ix.ContainsBatch(sl, cols, sc.Iota(r.Len()), sc)
	})
	if allocs != 0 {
		t.Fatalf("warm ContainsBatch: %v allocs/run, want 0", allocs)
	}
	emit := func(i int, ids []int32) {}
	allocs = testing.AllocsPerRun(50, func() {
		ix.LookupBatch(sl, cols, sc.Iota(r.Len()), sc, emit)
	})
	if allocs != 0 {
		t.Fatalf("warm LookupBatch: %v allocs/run, want 0", allocs)
	}
}

// sameIDs reports whether two row-id slices are identical element-wise.
func sameIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchedForcedCollisions degrades every fingerprint to one of two
// values (the scalar forced-collision setup) and checks that the batched
// kernels — batched hashing, inline-key short-circuit, same-fingerprint
// slots — still resolve every probe exactly like the scalar Lookup/Contains
// path.
func TestBatchedForcedCollisions(t *testing.T) {
	degenerate := func(tu Tuple, cols []int) uint64 {
		if len(cols) > 0 {
			return uint64(tu[cols[0]]) & 1
		}
		return 0
	}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := batchRelation(rng, "S", 2, 1+rng.Intn(80), 12)
		r := batchRelation(rng, "R", 2, 1+rng.Intn(80), 14)
		cols := []int{rng.Intn(2)}
		probeCols := []int{rng.Intn(2)}
		sl := r.Slab()
		for _, par := range []int{1, 4} {
			ix := buildIndex(s.Tuples, cols, s.Slab(), par, degenerate)
			sc := GetScratch()
			ids := sc.Iota(r.Len())

			// ContainsBatch must keep exactly the scalar survivors, in order.
			got := ix.ContainsBatch(sl, probeCols, ids, sc)
			var want []int32
			for i, tu := range r.Tuples {
				if ix.Contains(tu, probeCols) {
					want = append(want, int32(i))
				}
			}
			if !sameIDs(got, want) {
				t.Fatalf("seed %d par %d: ContainsBatch %v, scalar %v", seed, par, got, want)
			}

			// LookupBatch must hand out the very buckets Lookup returns.
			pos := 0
			ix.LookupBatch(sl, probeCols, sc.Iota(r.Len()), sc, func(i int, bids []int32) {
				for pos < i {
					if n := len(ix.Lookup(r.Tuples[pos], probeCols)); n != 0 {
						t.Fatalf("seed %d par %d: LookupBatch skipped row %d with %d scalar rows", seed, par, pos, n)
					}
					pos++
				}
				if sids := ix.Lookup(r.Tuples[i], probeCols); !sameIDs(bids, sids) {
					t.Fatalf("seed %d par %d row %d: LookupBatch %v, Lookup %v", seed, par, i, bids, sids)
				}
				pos = i + 1
			})
			for ; pos < r.Len(); pos++ {
				if n := len(ix.Lookup(r.Tuples[pos], probeCols)); n != 0 {
					t.Fatalf("seed %d par %d: LookupBatch missed trailing row %d with %d scalar rows", seed, par, pos, n)
				}
			}
			sc.Release()
		}
	}
}

// lookupAll snapshots every bucket of ix as probed through the scalar path.
func lookupAll(ix *Index, probes []Tuple, cols []int) [][]int32 {
	out := make([][]int32, len(probes))
	for i, tu := range probes {
		out[i] = append([]int32(nil), ix.Lookup(tu, cols)...)
	}
	return out
}

// TestIndexCompact churns an index through add/remove cycles — the
// ConstRefresher access pattern — and checks that Compact reclaims the
// abandoned slots, preserves every bucket (including the same-fingerprint
// slots of colliding keys), keeps waste bounded when invoked at the
// threshold, and keeps Buckets() at the live key count. It also grows a
// 1-row index through several table doublings.
func TestIndexCompact(t *testing.T) {
	degenerate := func(tu Tuple, cols []int) uint64 {
		if len(cols) > 0 {
			return uint64(tu[cols[0]]) & 1
		}
		return 0
	}
	for _, tc := range []struct {
		name string
		hash keyHashFunc
	}{{"default", nil}, {"degenerate", degenerate}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			r := batchRelation(rng, "R", 2, 512, 24)
			sl := r.Slab()
			ix := buildIndex(r.Tuples, []int{0}, sl, 1, tc.hash)
			live := make([]bool, r.Len())
			for i := range live {
				live[i] = true
			}
			maxWaste := 0
			for round := 0; round < 200; round++ {
				// Remove a random live row, re-add a random dead one: spans
				// shrink, relocate, and regrow, accumulating waste.
				for k := 0; k < 8; k++ {
					i := rng.Intn(r.Len())
					if live[i] {
						if !ix.RemoveRow(int32(i)) {
							t.Fatalf("round %d: RemoveRow(%d) did not find the row", round, i)
						}
					} else {
						ix.AddRow(int32(i))
					}
					live[i] = !live[i]
				}
				if ix.Waste() >= 64 {
					before := lookupAll(ix, r.Tuples, []int{0})
					reclaimed := ix.Compact()
					if reclaimed == 0 {
						t.Fatalf("round %d: Compact reclaimed nothing at waste %d", round, ix.Waste())
					}
					if ix.Waste() != 0 {
						t.Fatalf("round %d: waste %d after Compact, want 0", round, ix.Waste())
					}
					after := lookupAll(ix, r.Tuples, []int{0})
					for i := range before {
						if !sameIDs(before[i], after[i]) {
							t.Fatalf("round %d probe %d: bucket %v after Compact, want %v", round, i, after[i], before[i])
						}
					}
				}
				if ix.Waste() > maxWaste {
					maxWaste = ix.Waste()
				}
			}
			// The threshold sweep keeps waste bounded: at most the threshold
			// plus one burst of relocations (each of the 8 patches in a
			// burst can abandon up to one whole bucket). Unbounded churn
			// would accumulate an order of magnitude more over 200 rounds.
			if bound := 64 + 8*128; maxWaste > bound {
				t.Fatalf("waste reached %d under periodic compaction, bound %d", maxWaste, bound)
			}
			// Buckets() counts the true keys of the live rows after churn.
			liveKeys := map[Value]bool{}
			for i, tu := range r.Tuples {
				if live[i] {
					liveKeys[tu[0]] = true
				}
			}
			if ix.Buckets() != len(liveKeys) {
				t.Fatalf("Buckets() = %d after churn, want %d live keys", ix.Buckets(), len(liveKeys))
			}
			// Batched probes agree with scalar after churn + compaction.
			ix.Compact()
			sc := GetScratch()
			defer sc.Release()
			got := ix.ContainsBatch(sl, []int{0}, sc.Iota(r.Len()), sc)
			var want []int32
			for i, tu := range r.Tuples {
				if ix.Contains(tu, []int{0}) {
					want = append(want, int32(i))
				}
			}
			if !sameIDs(got, want) {
				t.Fatalf("post-churn ContainsBatch %v, scalar %v", got, want)
			}

			// Growth from a 1-row index: AddRow doubles the table from 2
			// slots to 256 and every key stays exact.
			g := NewRelation("G", 2)
			g.InsertValues(0, 0)
			gsl := g.Slab()
			gix := buildIndex(g.Tuples, []int{0}, gsl, 1, tc.hash)
			if n := len((*gix.shards.Load())[0].slots); n != 2 {
				t.Fatalf("1-row index has a %d-slot table, want 2", n)
			}
			for i := 1; i < 300; i++ {
				var id int32
				gsl, id = gsl.Append(Tuple{Value(i % 100), Value(i)})
				gix.SetSlab(gsl)
				gix.AddRow(id)
			}
			if n := len((*gix.shards.Load())[0].slots); n != 256 {
				t.Fatalf("grown index has a %d-slot table, want 256 for 100 keys", n)
			}
			if gix.Buckets() != 100 {
				t.Fatalf("grown index: Buckets() = %d, want 100", gix.Buckets())
			}
			for v := 0; v < 100; v++ {
				var want []int32
				for id := int32(0); id < int32(gsl.Len()); id++ {
					if gsl.Row(id)[0] == Value(v) {
						want = append(want, id)
					}
				}
				if got := gix.Lookup(Tuple{Value(v)}, []int{0}); !sameIDs(got, want) {
					t.Fatalf("grown index: key %d bucket %v, want %v", v, got, want)
				}
			}
		})
	}
}
