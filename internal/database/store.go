package database

// The storage seam between relations and the out-of-core snapshot layer
// (internal/snapshot). A relation's columnar storage can come from two
// places: heap slices built by slabLocked (today's mutation-capable path),
// or read-only pages of an mmap-ed snapshot file installed wholesale via
// FromSlab. The seam is deliberately narrow — a spec struct in, a relation
// out, plus dump/restore of the CSR index layout and the dictionary — so
// the snapshot package never touches Relation internals and the engines
// never learn where their slabs live. Mapped relations promote themselves
// to heap storage on first mutation (see promoteLocked in mutate.go), so
// the delta-log/refresh machinery works unchanged on either backing.

import (
	"fmt"
	"sort"
)

// SlabSpec describes a relation to be installed from prebuilt columnar
// storage. Data holds the rows arity-strided (row i at Data[i*Arity:]);
// it may alias read-only mapped memory, in which case Mapped must be set
// so the relation copies it to heap before the first mutation. Gen seeds
// the relation's mutation counter, so a restored database reproduces the
// original's Generation and previously minted plans/cursors stay valid.
type SlabSpec struct {
	Name   string
	Arity  int
	Rows   int
	Data   []Value
	Sorted bool
	Mapped bool
	Gen    uint64
}

// FromSlab builds a relation directly over prebuilt columnar storage: the
// slab is installed as-is and the Tuples become views into it, exactly the
// layout slabLocked would have produced — so every engine, index build,
// and batch kernel runs unchanged over a restored relation. No tuple data
// is copied; a Mapped spec defers the copy to the first mutation.
func FromSlab(spec SlabSpec) (*Relation, error) {
	if spec.Arity < 0 || spec.Rows < 0 {
		return nil, fmt.Errorf("database: FromSlab %s: negative arity or rows", spec.Name)
	}
	if spec.Rows > maxRows {
		return nil, fmt.Errorf("database: FromSlab %s: %d rows; row ids are int32, max %d", spec.Name, spec.Rows, maxRows)
	}
	if len(spec.Data) != spec.Rows*spec.Arity {
		return nil, fmt.Errorf("database: FromSlab %s: %d values for %d rows of arity %d",
			spec.Name, len(spec.Data), spec.Rows, spec.Arity)
	}
	r := NewRelation(spec.Name, spec.Arity)
	r.Tuples = make([]Tuple, spec.Rows)
	if spec.Arity == 0 {
		// Arity-0 relations have no columnar payload; their tuples are the
		// empty tuple and the heap path handles them throughout.
		for i := range r.Tuples {
			r.Tuples[i] = Tuple{}
		}
	} else {
		sl := Slab{data: spec.Data, arity: spec.Arity, mapped: spec.Mapped}
		for i := range r.Tuples {
			r.Tuples[i] = sl.Row(int32(i))
		}
		r.slabPtr.Store(&sl)
		r.mapped = spec.Mapped
	}
	r.sorted = spec.Sorted
	r.gen.Store(spec.Gen)
	return r, nil
}

// Sorted reports whether the relation is known sorted (established by
// Sort/Dedup, cleared by inserts). The snapshot writer persists the flag
// so a restored relation keeps its binary-search Contains path.
func (r *Relation) Sorted() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sorted
}

// Mapped reports whether the relation's storage still aliases read-only
// mapped snapshot pages. It flips to false on the first mutation, when the
// relation promotes itself to heap storage (copy-on-write).
func (r *Relation) Mapped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mapped
}

// StructuralGen returns the database's structural mutation counter (the
// AddRelation count that Generation shifts past the per-relation sum).
// The snapshot layer persists it so a restored database reproduces the
// original's Generation exactly.
func (db *Database) StructuralGen() uint64 { return db.mutGen.Load() }

// SetStructuralGen seeds the structural counter of a freshly restored
// database. It must only be called before the database is shared.
func (db *Database) SetStructuralGen(g uint64) { db.mutGen.Store(g) }

// Names returns the interned names in value order: Names()[i] is the name
// of Value(i+1). Persisting this slice and replaying it through
// DictionaryFromNames reproduces the dictionary with identical value ids.
func (d *Dictionary) Names() []string {
	return append([]string(nil), d.toName...)
}

// DictionaryFromNames rebuilds a dictionary from a Names slice, interning
// in order so value ids round-trip. A duplicated name is corruption (Intern
// never hands out two ids for one name) and is rejected.
func DictionaryFromNames(names []string) (*Dictionary, error) {
	d := NewDictionary()
	for _, n := range names {
		if _, ok := d.toValue[n]; ok {
			return nil, fmt.Errorf("database: dictionary restore: duplicate name %q", n)
		}
		d.toName = append(d.toName, n)
		d.toValue[n] = Value(len(d.toName))
	}
	return d, nil
}

// --- CSR index dump/restore -------------------------------------------

// IndexCSR is the serializable layout of a single-shard hash index: the
// bucket row array plus one (fingerprint, span) triple per key, sorted by
// fingerprint and then by span offset. A fingerprint that holds several
// distinct true keys (a real 64-bit collision, or a degraded test hash)
// appears once per key; each restores as its own table slot.
type IndexCSR struct {
	Cols []int
	Rows []int32
	FPs  []uint64
	Offs []int32
	Lens []int32
}

// DumpIndex builds a fresh single-shard index on cols with the default
// fingerprint and returns its CSR layout in deterministic (fingerprint-
// sorted) order. The build is not cached: snapshot writing must not
// perturb the relation's warm index cache, and a cached index may be
// sharded (ParIndexOn) or test-hashed, neither of which serializes.
func (r *Relation) DumpIndex(cols []int) IndexCSR {
	r.mu.Lock()
	sl := r.slabLocked()
	tuples := r.Tuples
	r.mu.Unlock()
	return buildIndex(tuples, cols, sl, 1, nil).csr()
}

// csr returns the CSR layout of a single-shard index: its row array and
// one triple per occupied table slot, sorted by (fingerprint, offset).
func (ix *Index) csr() IndexCSR {
	sh := &(*ix.shards.Load())[0]
	ents := make([]tableEnt, 0, sh.keys)
	for _, e := range sh.slots {
		if e.n != 0 {
			ents = append(ents, e)
		}
	}
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].fp != ents[j].fp {
			return ents[i].fp < ents[j].fp
		}
		return ents[i].off < ents[j].off
	})
	c := IndexCSR{
		Cols: append([]int(nil), ix.Cols...),
		Rows: append([]int32(nil), sh.rows...),
	}
	for _, e := range ents {
		c.FPs = append(c.FPs, e.fp)
		c.Offs = append(c.Offs, e.off)
		c.Lens = append(c.Lens, e.n)
	}
	return c
}

// RestoreIndex installs a prebuilt CSR layout (as produced by DumpIndex)
// into the relation's index cache, skipping the linear-time build. Bounds
// are validated — row ids must resolve inside the relation, spans inside
// the row array — so corrupt input yields an error, never a panic; the
// grouping itself is trusted, which is why the snapshot layer only calls
// this after the section checksum verifies. The restored index uses the
// default fingerprint and is indistinguishable from an IndexOn build.
func (r *Relation) RestoreIndex(c IndexCSR) error {
	for _, col := range c.Cols {
		if col < 0 || col >= r.Arity {
			return fmt.Errorf("database: restore index on %s: column %d out of arity %d", r.Name, col, r.Arity)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ix, err := indexFromCSR(c, r.slabLocked(), len(r.Tuples), nil)
	if err != nil {
		return fmt.Errorf("database: restore index on %s: %v", r.Name, err)
	}
	r.setIndexLocked(ix)
	return nil
}

// indexFromCSR builds a single-shard index over sl (n rows) from a CSR
// layout, validating every row id and span against them. hash must be the
// fingerprint the layout was built with; nil selects the default, as in
// buildIndex.
func indexFromCSR(c IndexCSR, sl Slab, n int, hash keyHashFunc) (*Index, error) {
	if len(c.FPs) != len(c.Offs) || len(c.FPs) != len(c.Lens) {
		return nil, fmt.Errorf("bucket arrays disagree: %d/%d/%d", len(c.FPs), len(c.Offs), len(c.Lens))
	}
	for _, id := range c.Rows {
		if id < 0 || int(id) >= n {
			return nil, fmt.Errorf("row id %d out of %d rows", id, n)
		}
	}
	ix := &Index{Cols: append([]int(nil), c.Cols...), slab: sl, hash: hash, fast: hash == nil}
	if ix.fast {
		ix.hash = defaultKeyHash
	}
	sh := shard{rows: append([]int32(nil), c.Rows...)}
	if len(c.FPs) > 0 {
		sh.slots = make([]tableEnt, tableSize(len(c.FPs)))
	}
	total := 0
	for i, fp := range c.FPs {
		off, cnt := c.Offs[i], c.Lens[i]
		if cnt < 1 || off < 0 || int(off)+int(cnt) > len(sh.rows) {
			return nil, fmt.Errorf("span [%d,+%d) outside %d rows", off, cnt, len(sh.rows))
		}
		total += int(cnt)
		ix.insert(&sh, fp, sl.Row(sh.rows[off]), off, cnt)
	}
	if total != len(sh.rows) {
		return nil, fmt.Errorf("spans cover %d of %d rows", total, len(sh.rows))
	}
	ix.shards.Store(&[]shard{sh})
	return ix, nil
}
