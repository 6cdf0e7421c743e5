package database

// Atom projections: the relation of one query atom over a base relation.
//
// Every bind starts by turning each atom R(t1..tk) into a relation over its
// distinct variables: the rows of R that satisfy the atom's constants and
// repeated variables, projected onto the first occurrence of each variable,
// sorted and deduplicated (the first scan of the linear preprocessing of
// Theorems 4.2, 4.3 and 4.6). That relation depends only on the base
// relation and on the atom's shape, not on the query around it. For a
// constant-free atom the shape is its equality pattern — eq[i] is the
// first column holding the same variable as column i — so the base
// relation caches one projection per pattern next to its indexes, and
// every bind, and every self-join occurrence, shares it until the base
// mutates. Constants would make the key space unbounded; atoms carrying
// them are built by the same function without the cache.
//
// A cached projection is frozen: it is one *Relation shared across
// goroutines and binds, so any attempt to mutate it (insert, delete, a
// reordering Sort or Dedup, CompactSlab) panics. Its own derived state —
// slab and index cache — is ordinary and survives with it, which is what
// lets leaf semijoins of repeated binds reuse their probe indexes.

import (
	"fmt"
	"sort"
)

// AtomProjection returns the relation of an atom over r. eq describes the
// atom column by column: eq[i] is the first column holding the same
// variable as column i (eq[i] == i at a variable's first occurrence), or
// -1 when column i holds the constant consts[i]. consts is read only at
// constant columns and may be nil for a constant-free atom. The result
// keeps the rows of r matching the constants and the repeated variables,
// projected onto the first-occurrence columns in column order, sorted and
// duplicate-free.
//
// Constant-free atoms are served from r's projection cache: the returned
// relation is frozen and shared with every other caller asking for the
// same pattern until r next mutates. Atoms with constants get a fresh,
// mutable relation.
func (r *Relation) AtomProjection(eq []int, consts []Value) *Relation {
	if len(eq) != r.Arity {
		panic(fmt.Sprintf("database: atom projection of %s: pattern of length %d, arity %d", r.Name, len(eq), r.Arity))
	}
	for _, p := range eq {
		if p < 0 {
			r.projBypass.Add(1)
			return buildAtomProjection(r.Name, r.Tuples, eq, consts)
		}
	}
	sig, packed := colsSig(eq)
	var bigSig string
	if !packed {
		bigSig = colsSigBig(eq)
	}
	r.mu.Lock()
	p := r.cachedProjLocked(sig, bigSig, packed)
	gen, tuples := r.gen.Load(), r.Tuples
	r.mu.Unlock()
	if p != nil {
		r.projHits.Add(1)
		return p
	}
	r.projMisses.Add(1)
	// Build outside r.mu: the build only reads r's tuples, and holding the
	// lock would serialize it against IndexOn and Slab on the same relation.
	p = buildAtomProjection(r.Name, tuples, eq, nil)
	p.frozen = true
	r.mu.Lock()
	defer r.mu.Unlock()
	if q := r.cachedProjLocked(sig, bigSig, packed); q != nil {
		return q // a concurrent build installed first; share its result
	}
	if r.gen.Load() != gen {
		return p // r mutated during the build; never cache a stale copy
	}
	if packed {
		if r.projs == nil {
			r.projs = make(map[uint64]*Relation)
		}
		r.projs[sig] = p
	} else {
		if r.projsBig == nil {
			r.projsBig = make(map[string]*Relation)
		}
		r.projsBig[bigSig] = p
	}
	return p
}

func (r *Relation) cachedProjLocked(sig uint64, bigSig string, packed bool) *Relation {
	if packed {
		return r.projs[sig]
	}
	return r.projsBig[bigSig]
}

// ProjectionStats counts atom projection requests on one relation: Hits
// were served from the cache, Misses built and cached a projection, and
// Bypass built an uncached one for an atom with constants.
type ProjectionStats struct {
	Hits, Misses, Bypass uint64
}

// ProjectionStats returns the relation's atom projection counters.
func (r *Relation) ProjectionStats() ProjectionStats {
	return ProjectionStats{Hits: r.projHits.Load(), Misses: r.projMisses.Load(), Bypass: r.projBypass.Load()}
}

// ProjectionStats sums the atom projection counters of the database's
// relations. It reads atomics only and does not allocate.
func (db *Database) ProjectionStats() ProjectionStats {
	var s ProjectionStats
	for _, name := range db.order {
		rs := db.Relations[name].ProjectionStats()
		s.Hits += rs.Hits
		s.Misses += rs.Misses
		s.Bypass += rs.Bypass
	}
	return s
}

// Frozen reports whether the relation is a cached atom projection, which
// panics on any mutation.
func (r *Relation) Frozen() bool { return r.frozen }

// checkMutable panics when r is a frozen atom projection.
func (r *Relation) checkMutable(op string) {
	if r.frozen {
		panic(fmt.Sprintf("database: %s on frozen atom projection of %s", op, r.Name))
	}
}

// buildAtomProjection is the one build behind AtomProjection: select the
// matching rows, project them, sort and deduplicate. The rows land in one
// dense slab installed as the result's storage, so the first Slab or
// index build on the result copies nothing.
func buildAtomProjection(name string, src []Tuple, eq []int, consts []Value) *Relation {
	var cols []int
	for i, p := range eq {
		if p == i {
			cols = append(cols, i)
		}
	}
	k := len(cols)
	out := NewRelation(name, k)
	out.sorted = true
	var vals []Value
	if k == len(eq) {
		vals = make([]Value, 0, len(src)*k) // every row matches
	}
	n := 0
	for _, t := range src {
		if !AtomMatches(t, eq, consts) {
			continue
		}
		for _, c := range cols {
			vals = append(vals, t[c])
		}
		n++
	}
	if n == 0 {
		return out
	}
	if k == 0 {
		// Every matching row projects to the empty tuple.
		out.Tuples = []Tuple{{}}
		return out
	}
	rows := make([]Tuple, n)
	for i := range rows {
		rows[i] = vals[i*k : (i+1)*k : (i+1)*k]
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Compare(rows[j]) < 0 })
	m := 1
	for _, t := range rows[1:] {
		if !t.Equal(rows[m-1]) {
			rows[m] = t
			m++
		}
	}
	sl := Slab{arity: k, data: make([]Value, m*k)}
	out.Tuples = make([]Tuple, m)
	for i, t := range rows[:m] {
		copy(sl.data[i*k:], t)
		out.Tuples[i] = sl.Row(int32(i))
	}
	out.slabPtr.Store(&sl)
	return out
}

// AtomMatches reports whether t satisfies the constants and repeated
// variables of an atom described as for AtomProjection. The incremental
// refreshers filter base deltas through it, so they select exactly the
// rows AtomProjection keeps.
func AtomMatches(t Tuple, eq []int, consts []Value) bool {
	for i, p := range eq {
		if p < 0 {
			if t[i] != consts[i] {
				return false
			}
		} else if p != i && t[i] != t[p] {
			return false
		}
	}
	return true
}
