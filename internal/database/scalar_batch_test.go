package database_test

// 250-seed differential between the scalar and the vectorized probe
// engines: Semijoin/ParSemijoin/Join through the batch kernels must equal
// SemijoinScalar/JoinScalar tuple for tuple, IN ORDER — not just as sets.
// Order-exactness is what lets the cq layer's per-result step counting
// stay bit-identical when the kernels are swapped, so it is asserted
// directly here.

import (
	"math/rand"
	"testing"

	"repro/internal/database"
)

// skewedRelation draws a relation whose key skew varies by seed: small
// domains produce long equal-key runs (many probes of one bucket), large
// domains produce near-unique keys (many distinct table slots), and sizes
// cross the parallel-probe cutoff at 1024.
func skewedRelation(rng *rand.Rand, name string, arity int) *database.Relation {
	n := 1 + rng.Intn(2000)
	dom := 1 + rng.Intn(3*n)
	if rng.Intn(3) == 0 {
		dom = 1 + rng.Intn(20) // heavy duplication
	}
	r := database.NewRelation(name, arity)
	for i := 0; i < n; i++ {
		t := make(database.Tuple, arity)
		for j := range t {
			t[j] = database.Value(1 + rng.Intn(dom))
		}
		r.Tuples = append(r.Tuples, t)
	}
	r.Dedup()
	return r
}

func tuplesEqualOrdered(a, b []database.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestDifferentialScalarBatchSemijoin(t *testing.T) {
	for seed := int64(0); seed < 250; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ra := 1 + rng.Intn(3)
		sa := 1 + rng.Intn(3)
		k := 1 + rng.Intn(min(ra, sa))
		r := skewedRelation(rng, "R", ra)
		s := skewedRelation(rng, "S", sa)
		rCols := rng.Perm(ra)[:k]
		sCols := rng.Perm(sa)[:k]

		want := database.SemijoinScalar(r, rCols, s, sCols)
		got := database.Semijoin(r, rCols, s, sCols)
		if !tuplesEqualOrdered(got.Tuples, want.Tuples) {
			t.Fatalf("seed %d: batched Semijoin %d tuples, scalar %d (or order drift)", seed, got.Len(), want.Len())
		}
		for _, par := range []int{1, 4} {
			gotPar := database.ParSemijoin(r, rCols, s, sCols, par)
			if !tuplesEqualOrdered(gotPar.Tuples, want.Tuples) {
				t.Fatalf("seed %d par %d: batched ParSemijoin diverges from scalar", seed, par)
			}
		}
		one := oneKeyRelation(t, rng, r, rCols, s, sCols)
		want = database.SemijoinScalar(r, rCols, one, sCols)
		if got := database.Semijoin(r, rCols, one, sCols); !tuplesEqualOrdered(got.Tuples, want.Tuples) {
			t.Fatalf("seed %d: batched Semijoin on a one-key table %d tuples, scalar %d (or order drift)", seed, got.Len(), want.Len())
		}
	}
}

func TestDifferentialScalarBatchJoin(t *testing.T) {
	for seed := int64(0); seed < 250; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		ra := 1 + rng.Intn(3)
		sa := 1 + rng.Intn(3)
		k := 1 + rng.Intn(min(ra, sa))
		r := skewedRelation(rng, "R", ra)
		s := skewedRelation(rng, "S", sa)
		rCols := rng.Perm(ra)[:k]
		sCols := rng.Perm(sa)[:k]

		want := database.JoinScalar("J", r, rCols, s, sCols)
		got := database.Join("J", r, rCols, s, sCols)
		if !tuplesEqualOrdered(got.Tuples, want.Tuples) {
			t.Fatalf("seed %d: batched Join %d tuples, scalar %d (or order drift)", seed, got.Len(), want.Len())
		}
		one := oneKeyRelation(t, rng, r, rCols, s, sCols)
		want = database.JoinScalar("J", r, rCols, one, sCols)
		if got := database.Join("J", r, rCols, one, sCols); !tuplesEqualOrdered(got.Tuples, want.Tuples) {
			t.Fatalf("seed %d: batched Join on a one-key table %d tuples, scalar %d (or order drift)", seed, got.Len(), want.Len())
		}
	}
}

// TestSetBatchKernelsToggle proves the process-wide toggle routes the
// public entry points through the scalar path and back, with identical
// results either way.
func TestSetBatchKernelsToggle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := skewedRelation(rng, "R", 2)
	s := skewedRelation(rng, "S", 2)

	prev := database.SetBatchKernels(false)
	if !prev {
		t.Fatalf("batch kernels expected on by default")
	}
	off := database.Semijoin(r, []int{1}, s, []int{0})
	database.SetBatchKernels(true)
	on := database.Semijoin(r, []int{1}, s, []int{0})
	if !tuplesEqualOrdered(off.Tuples, on.Tuples) {
		t.Fatalf("toggle changed the semijoin result: off %d tuples, on %d", off.Len(), on.Len())
	}
}

// oneKeyRelation restricts s to the tuples sharing one sCols key, as the
// linear-delay enumerator restricts relations per answer, so that the
// batch kernels probe a one-key table. Half the time the key is taken
// from r's rCols, so that some probes hit.
func oneKeyRelation(t *testing.T, rng *rand.Rand, r *database.Relation, rCols []int, s *database.Relation, sCols []int) *database.Relation {
	key := s.Tuples[rng.Intn(s.Len())].Clone()
	if rng.Intn(2) == 0 {
		u := r.Tuples[rng.Intn(r.Len())]
		for i, c := range sCols {
			key[c] = u[rCols[i]]
		}
	}
	one := s.Select("S1", func(u database.Tuple) bool {
		for _, c := range sCols {
			if u[c] != key[c] {
				return false
			}
		}
		return true
	})
	if one.Len() == 0 {
		one.Insert(key)
	}
	if b := one.IndexOn(sCols).Buckets(); b != 1 {
		t.Fatalf("one-key relation has %d keys", b)
	}
	return one
}
