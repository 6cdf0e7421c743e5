package database

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// refAtomProjection is the select → project → dedup pipeline that
// AtomProjection replaced, kept as its oracle.
func refAtomProjection(r *Relation, eq []int, consts []Value) *Relation {
	sel := r.Select(r.Name, func(t Tuple) bool { return AtomMatches(t, eq, consts) })
	var cols []int
	for i, p := range eq {
		if p == i {
			cols = append(cols, i)
		}
	}
	out := sel.Project(r.Name, cols)
	out.Dedup()
	return out
}

func relOf(arity int, rows ...Tuple) *Relation {
	r := NewRelation("R", arity)
	if err := r.InsertBatch(rows); err != nil {
		panic(err)
	}
	return r
}

var ident2 = []int{0, 1}

// TestAtomProjectionMatchesPipeline: on random relations and random atom
// shapes — repeated variables, constants, both — the one-pass build yields
// exactly the rows, in exactly the order, of the old select/project/dedup
// pipeline.
func TestAtomProjectionMatchesPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 400; iter++ {
		arity := rng.Intn(5)
		r := NewRelation("R", arity)
		for i, n := 0, rng.Intn(40); i < n; i++ {
			tp := make(Tuple, arity)
			for j := range tp {
				tp[j] = Value(rng.Intn(4))
			}
			r.Insert(tp)
		}
		eq := make([]int, arity)
		consts := make([]Value, arity)
		for i := range eq {
			switch k := rng.Intn(4); {
			case k == 0:
				eq[i], consts[i] = -1, Value(rng.Intn(4))
			case k == 1 && i > 0:
				// Repeat the variable of some earlier variable column.
				eq[i] = i
				for j := 0; j < i; j++ {
					if eq[j] >= 0 {
						eq[i] = eq[j]
						break
					}
				}
			default:
				eq[i] = i
			}
		}
		want := refAtomProjection(r, eq, consts)
		got := r.AtomProjection(eq, consts)
		if got.Arity != want.Arity || !tuplesEqual(got.Tuples, want.Tuples) || !got.Sorted() {
			t.Fatalf("pattern %v consts %v over %v:\ngot  %v (arity %d)\nwant %v (arity %d)",
				eq, consts, r.Tuples, got.Tuples, got.Arity, want.Tuples, want.Arity)
		}
		if got.Len() > 0 && got.Arity > 0 && !got.Slab().Row(int32(got.Len()-1)).Equal(got.Tuples[got.Len()-1]) {
			t.Fatalf("installed slab disagrees with the tuples")
		}
	}
}

// TestAtomProjectionShared: repeated requests for one pattern return the
// same frozen object, and the counters record one miss then hits.
func TestAtomProjectionShared(t *testing.T) {
	r := relOf(2, Tuple{2, 1}, Tuple{1, 1}, Tuple{2, 1})
	p := r.AtomProjection(ident2, nil)
	if !p.Frozen() || !tuplesEqual(p.Tuples, []Tuple{{1, 1}, {2, 1}}) {
		t.Fatalf("projection %v frozen=%v", p.Tuples, p.Frozen())
	}
	if q := r.AtomProjection(ident2, nil); q != p {
		t.Fatal("second request built a new projection")
	}
	// A cached projection's own derived state is ordinary and survives
	// with it across requests.
	ix := p.IndexOn([]int{1})
	if r.AtomProjection(ident2, nil).IndexOn([]int{1}) != ix {
		t.Fatal("index on the shared projection was rebuilt")
	}
	if st := r.ProjectionStats(); st != (ProjectionStats{Hits: 2, Misses: 1}) {
		t.Fatalf("stats %+v, want 2 hits, 1 miss", st)
	}
	db := NewDatabase()
	db.AddRelation(r)
	s := NewRelation("S", 1)
	s.Insert(Tuple{7})
	s.AtomProjection([]int{0}, nil)
	db.AddRelation(s)
	if st := db.ProjectionStats(); st != (ProjectionStats{Hits: 2, Misses: 2}) {
		t.Fatalf("database stats %+v, want 2 hits, 2 misses", st)
	}
}

// TestAtomProjectionPatterns: each pattern of repeated variables has its
// own cache entry — R(x,y) and R(x,x) never share a projection.
func TestAtomProjectionPatterns(t *testing.T) {
	r := relOf(2, Tuple{1, 1}, Tuple{1, 2}, Tuple{3, 3})
	all := r.AtomProjection(ident2, nil)
	diag := r.AtomProjection([]int{0, 0}, nil)
	if all == diag {
		t.Fatal("R(x,y) and R(x,x) share a projection")
	}
	if diag.Arity != 1 || !tuplesEqual(diag.Tuples, []Tuple{{1}, {3}}) {
		t.Fatalf("R(x,x) projection %v (arity %d)", diag.Tuples, diag.Arity)
	}
	if r.AtomProjection([]int{0, 0}, nil) != diag || r.AtomProjection(ident2, nil) != all {
		t.Fatal("a pattern's entry was not reused")
	}
	// Patterns too wide for a packed signature are cached too.
	wide := NewRelation("W", 9)
	wide.Insert(Tuple{1, 2, 3, 4, 5, 6, 7, 8, 9})
	eq := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	if wp := wide.AtomProjection(eq, nil); wide.AtomProjection(eq, nil) != wp {
		t.Fatal("wide pattern was not cached")
	}
	// Arity 0: the projection is {()} when the relation is nonempty.
	z := relOf(0, Tuple{}, Tuple{})
	if zp := z.AtomProjection(nil, nil); z.AtomProjection(nil, nil) != zp || zp.Len() != 1 {
		t.Fatalf("arity-0 projection %v", zp.Tuples)
	}
}

// TestAtomProjectionConstantsBypass: an atom with constants gets a fresh,
// mutable relation on every request and never touches the cache.
func TestAtomProjectionConstantsBypass(t *testing.T) {
	r := relOf(2, Tuple{1, 5}, Tuple{2, 5}, Tuple{3, 6})
	eq, consts := []int{0, -1}, []Value{0, 5}
	a, b := r.AtomProjection(eq, consts), r.AtomProjection(eq, consts)
	if a == b || a.Frozen() {
		t.Fatal("constant atom was served from the cache")
	}
	if !tuplesEqual(a.Tuples, []Tuple{{1}, {2}}) {
		t.Fatalf("R(x,5) projection %v", a.Tuples)
	}
	a.Insert(Tuple{9}) // uncached results are the caller's to mutate
	if st := r.ProjectionStats(); st != (ProjectionStats{Bypass: 2}) {
		t.Fatalf("stats %+v, want 2 bypasses", st)
	}
	r.mu.Lock()
	n := len(r.projs)
	r.mu.Unlock()
	if n != 0 {
		t.Fatalf("constant atoms left %d cache entries", n)
	}
}

// TestAtomProjectionInvalidation: every kind of mutation drops the cached
// projections, so the next request sees the new tuples; a holder of the
// old projection keeps it intact.
func TestAtomProjectionInvalidation(t *testing.T) {
	unsorted := func() *Relation { return relOf(2, Tuple{3, 3}, Tuple{1, 1}, Tuple{2, 2}) }
	cases := []struct {
		name   string
		rel    func() *Relation
		mutate func(r *Relation)
	}{
		{"Insert", unsorted, func(r *Relation) { r.Insert(Tuple{4, 4}) }},
		{"TryInsert", unsorted, func(r *Relation) {
			if err := r.TryInsert(Tuple{4, 4}); err != nil {
				panic(err)
			}
		}},
		{"InsertBatch", unsorted, func(r *Relation) {
			if err := r.InsertBatch([]Tuple{{4, 4}, {5, 5}}); err != nil {
				panic(err)
			}
		}},
		{"Delete", unsorted, func(r *Relation) { r.Delete(Tuple{1, 1}) }},
		{"DeleteBatch", unsorted, func(r *Relation) { r.DeleteBatch([]Tuple{{1, 1}, {3, 3}}) }},
		{"Sort", unsorted, func(r *Relation) { r.Sort() }},
		{"Dedup", func() *Relation { return relOf(2, Tuple{1, 1}, Tuple{1, 1}) }, func(r *Relation) { r.Dedup() }},
		{"CompactSlab", unsorted, func(r *Relation) { r.CompactSlab(r.Slab(), []int32{0, 2}) }},
		{"mmap promotion", func() *Relation {
			r, err := FromSlab(SlabSpec{Name: "R", Arity: 2, Rows: 2, Data: []Value{1, 1, 2, 2}, Sorted: true, Mapped: true})
			if err != nil {
				panic(err)
			}
			return r
		}, func(r *Relation) {
			r.Insert(Tuple{0, 0})
			if r.Mapped() {
				panic("insert did not promote the mapped relation")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.rel()
			old := r.AtomProjection(ident2, nil)
			oldRows := append([]Tuple(nil), old.Tuples...)
			diag := r.AtomProjection([]int{0, 0}, nil)
			tc.mutate(r)
			cur := r.AtomProjection(ident2, nil)
			if cur == old || r.AtomProjection([]int{0, 0}, nil) == diag {
				t.Fatal("mutation did not drop the cached projections")
			}
			if want := refAtomProjection(r, ident2, nil); !tuplesEqual(cur.Tuples, want.Tuples) {
				t.Fatalf("after mutation: %v, want %v", cur.Tuples, want.Tuples)
			}
			if !tuplesEqual(old.Tuples, oldRows) {
				t.Fatalf("old projection changed under its holder: %v, was %v", old.Tuples, oldRows)
			}
		})
	}
}

func mustPanic(t *testing.T, op string, f func()) {
	t.Helper()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "frozen") {
			t.Errorf("%s on a frozen projection: recovered %q, want a frozen-projection panic", op, msg)
		}
	}()
	f()
}

// TestFrozenProjectionPanics: every mutation of a cached projection
// panics, while no-op Sort/Dedup calls stay harmless.
func TestFrozenProjectionPanics(t *testing.T) {
	fresh := func() *Relation {
		return relOf(2, Tuple{2, 2}, Tuple{1, 1}).AtomProjection(ident2, nil)
	}
	p := fresh()
	p.Sort()
	p.Dedup()
	mustPanic(t, "Insert", func() { fresh().Insert(Tuple{3, 3}) })
	mustPanic(t, "TryInsert", func() { fresh().TryInsert(Tuple{3, 3}) })
	mustPanic(t, "InsertBatch", func() { fresh().InsertBatch([]Tuple{{3, 3}}) })
	mustPanic(t, "Delete", func() { fresh().Delete(Tuple{1, 1}) })
	mustPanic(t, "DeleteBatch", func() { fresh().DeleteBatch([]Tuple{{1, 1}}) })
	mustPanic(t, "CompactSlab", func() {
		p := fresh()
		p.CompactSlab(p.Slab(), []int32{0})
	})
	mustPanic(t, "reordering Sort", func() {
		p := fresh()
		p.sorted = false
		p.Tuples = []Tuple{p.Tuples[1], p.Tuples[0]}
		p.Sort()
	})
	mustPanic(t, "reordering Dedup", func() {
		p := fresh()
		p.Tuples = append(p.Tuples[:p.Len():p.Len()], p.Tuples[p.Len()-1])
		p.Dedup()
	})
}

// TestAtomProjectionHitAllocs: a cache hit and the stats read allocate
// nothing.
func TestAtomProjectionHitAllocs(t *testing.T) {
	r := relOf(2, Tuple{1, 2})
	db := NewDatabase()
	db.AddRelation(r)
	r.AtomProjection(ident2, nil)
	if n := testing.AllocsPerRun(100, func() { r.AtomProjection(ident2, nil) }); n != 0 {
		t.Fatalf("cache hit: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { db.ProjectionStats() }); n != 0 {
		t.Fatalf("ProjectionStats: %v allocs, want 0", n)
	}
}

// TestAtomProjectionConcurrent: concurrent binds on one relation request
// projections, build indexes and slabs on them and run no-op Dedups; run
// under -race this checks the double-checked install and the frozen
// object's read paths. Every goroutine must end up with one shared object
// per pattern.
func TestAtomProjectionConcurrent(t *testing.T) {
	r := NewRelation("R", 3)
	for i := 0; i < 3000; i++ {
		r.Insert(Tuple{Value(i % 17), Value(i % 17), Value(i % 5)})
	}
	patterns := [][]int{{0, 1, 2}, {0, 0, 2}, {0, 1, 0}}
	const workers = 8
	got := make([][]*Relation, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				for _, eq := range patterns {
					p := r.AtomProjection(eq, nil)
					p.IndexOn([]int{0}).Lookup(Tuple{3}, []int{0})
					p.Slab()
					p.Dedup()
					if !p.Contains(p.Tuples[0]) {
						t.Errorf("projection %v lost its first row", eq)
					}
					if k == 2 {
						got[w] = append(got[w], p)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range patterns {
			if got[w][i] != got[0][i] {
				t.Fatalf("pattern %v: workers 0 and %d hold different projections", patterns[i], w)
			}
		}
	}
	if st := r.ProjectionStats(); st.Hits+st.Misses != workers*3*uint64(len(patterns)) {
		t.Fatalf("stats %+v do not account for %d requests", st, workers*3*len(patterns))
	}
}
