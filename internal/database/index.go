package database

// The index layer: allocation-free hash indexes over columnar tuple slabs.
//
// A Relation freezes its tuples into a Slab — one flat []Value with
// arity-strided rows — and an Index groups row ids into one bucket per
// exact key projection. Each index shard has a single directory: a flat
// open-addressing table with one 32-byte slot per distinct key, holding
// the key's 64-bit fingerprint, its key values inlined, and its bucket as
// a span of the shard's row array. A probe hashes the probe columns, walks
// the linear probe sequence from the fingerprint's home slot, resolves
// fingerprint collisions exactly by comparing the key, and returns a
// sub-slice of the row array, so it performs no allocation. Scalar Lookup,
// the batch kernels (batch.go) and the in-place patches of delta refresh
// all use this one table. The RAM-model dictionaries of Section 2.3
// (linear preprocessing, constant-time probes) are exactly this structure;
// keeping the probe free of allocation is what makes the constant factor
// small.

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Slab is a relation's frozen tuple storage: row i occupies
// data[i*arity : (i+1)*arity]. Rows returned by Row are views into the
// slab, never copies.
//
// The data may live in heap slices (the mutation-capable default) or alias
// read-only pages of an mmap-ed snapshot file (mapped set; see
// internal/snapshot and FromSlab in store.go). The distinction is
// invisible to every read path — probes, batch kernels, and index builds
// operate on the []Value either way — and the write paths (Append here,
// the mutation funnel in mutate.go) copy to heap before the first write.
type Slab struct {
	data   []Value
	arity  int
	mapped bool // data aliases read-only mapped snapshot pages
}

// Mapped reports whether the slab's storage aliases read-only mapped
// snapshot pages (and so must never be written through).
func (s Slab) Mapped() bool { return s.mapped }

// Row returns row i as a tuple view into the slab.
func (s Slab) Row(i int32) Tuple {
	a := int(i) * s.arity
	return Tuple(s.data[a : a+s.arity])
}

// Len returns the number of rows.
func (s Slab) Len() int {
	if s.arity == 0 {
		return 0
	}
	return len(s.data) / s.arity
}

// Append adds a row to the slab and returns the grown slab together with
// the new row's id. The original slab value is untouched (append copies
// when the backing array is full, and freshly built slabs have no spare
// capacity), so existing row views stay valid; delta refresh uses this to
// extend a bound spine's storage without rebuilding it.
func (s Slab) Append(t Tuple) (Slab, int32) {
	if s.arity == 0 || len(t) != s.arity {
		panic(fmt.Sprintf("database: slab append: arity %d, got tuple of length %d", s.arity, len(t)))
	}
	if s.mapped {
		// Mapped pages are read-only; copy to heap before the first write.
		// (The mapped slice's len equals its cap, so append would reallocate
		// anyway — this makes the copy-on-write explicit and unconditional.)
		s.data = append([]Value(nil), s.data...)
		s.mapped = false
	}
	id := int32(s.Len())
	s.data = append(s.data, t...)
	return s, id
}

// Full reports whether the slab has reached the int32 row-id capacity.
func (s Slab) Full() bool { return s.Len() >= maxRows }

// Slab returns the relation's columnar slab, building and caching it on
// first use. The slab is invalidated by mutations, like the indexes.
func (r *Relation) Slab() Slab {
	if p := r.slabPtr.Load(); p != nil {
		return *p
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.slabLocked()
}

// slabLocked is Slab with r.mu already held. Relations grown past the int32
// row-id range fail loudly here — the choke point of every slab and index
// build — instead of letting the int32 conversions truncate: the internal
// relational operations (Project, Join, ...) append to Tuples directly, so
// the TryInsert guard alone cannot bound them.
func (r *Relation) slabLocked() Slab {
	if p := r.slabPtr.Load(); p != nil {
		return *p
	}
	if len(r.Tuples) > maxRows {
		panic(fmt.Sprintf("database: relation %s has %d rows; row ids are int32, max %d", r.Name, len(r.Tuples), maxRows))
	}
	s := Slab{arity: r.Arity, data: make([]Value, len(r.Tuples)*r.Arity)}
	for i, t := range r.Tuples {
		copy(s.data[i*r.Arity:(i+1)*r.Arity], t)
	}
	r.slabPtr.Store(&s)
	return s
}

// Row returns tuple i as a view into the relation's slab.
func (r *Relation) Row(i int) Tuple { return r.Slab().Row(int32(i)) }

// CompactSlab rebuilds the relation's row storage from the live rows of
// sl, reclaiming the slots tombstoned by delete churn: Slab.Append-grown
// storage is never shrunk by deletes — the incremental refreshers abandon
// slots, so under sustained delete/insert churn a spine slab only grows.
// live lists the surviving row ids in ascending order; the result is a
// fresh dense slab whose row i is a copy of sl.Row(live[i]), installed as
// the relation's storage together with rebuilt tuple views. The returned
// remap translates old row ids to new ones (-1 for dead rows), for
// Index.Rebase and refresher bookkeeping. The relation's generation is
// untouched — the live tuple set is identical, only its layout moved — so
// the caller must itself rebase every holder of old row ids (indexes,
// position maps) before publishing the new slab.
func (r *Relation) CompactSlab(sl Slab, live []int32) (Slab, []int32) {
	r.checkMutable("CompactSlab")
	if sl.arity == 0 {
		panic("database: CompactSlab on arity-0 slab")
	}
	ns := Slab{arity: sl.arity, data: make([]Value, len(live)*sl.arity)}
	remap := make([]int32, sl.Len())
	for i := range remap {
		remap[i] = -1
	}
	tuples := make([]Tuple, len(live))
	for i, id := range live {
		copy(ns.data[i*sl.arity:(i+1)*sl.arity], sl.Row(id))
		remap[id] = int32(i)
		tuples[i] = ns.Row(int32(i))
	}
	r.mu.Lock()
	r.Tuples = tuples
	r.dropDerivedLocked()
	r.sorted = false
	r.mapped = false // the compacted slab is a heap copy
	r.slabPtr.Store(&ns)
	r.mu.Unlock()
	return ns, remap
}

// --- fingerprints -----------------------------------------------------

const keyHashSeed uint64 = 0x9e3779b97f4a7c15

// foldHash mixes one value into a running fingerprint with a 128-bit
// multiply (wyhash-style); one multiplication per column, no allocation.
func foldHash(h uint64, v Value) uint64 {
	hi, lo := bits.Mul64(h^uint64(v), 0xa0761d6478bd642f)
	return hi ^ lo
}

// KeyHash returns a 64-bit fingerprint of t's projection onto cols. Equal
// projections always collide; distinct projections collide with
// probability ~2^-64 and every index resolves such collisions exactly by
// comparing the real key columns.
func (t Tuple) KeyHash(cols []int) uint64 {
	h := keyHashSeed ^ uint64(len(cols))
	for _, c := range cols {
		h = foldHash(h, t[c])
	}
	return h
}

// keyHashFunc abstracts the fingerprint function so tests can force
// collisions; production indexes always use Tuple.KeyHash.
type keyHashFunc func(t Tuple, cols []int) uint64

func defaultKeyHash(t Tuple, cols []int) uint64 { return t.KeyHash(cols) }

// testIndexHash, when non-nil, replaces the default fingerprint in every
// subsequent IndexOn/ParIndexOn build. In-package tests inject degraded
// hashes directly through buildIndex; this process-wide hook exists for
// the cross-package differential suites (internal/snapshot, internal/plan)
// that must degrade whole-engine runs they cannot reach into.
var testIndexHash atomic.Pointer[keyHashFunc]

// SetIndexHashForTesting forces every subsequent index build process-wide
// onto the given fingerprint function and returns a restore func. A
// degraded hash (a handful of fingerprints for the whole domain) drives
// the exact collision-resolution paths that the 2^-64 default never
// exercises. Answers and counted steps must be identical under any hash —
// the differential suites inject one to prove it. Not for production use;
// concurrent index builds observe the swap racily.
func SetIndexHashForTesting(hash func(Tuple, []int) uint64) (restore func()) {
	var h keyHashFunc
	if hash != nil {
		h = hash
		testIndexHash.Store(&h)
	} else {
		testIndexHash.Store(nil)
	}
	return func() { testIndexHash.Store(nil) }
}

// identCols[:k] is the identity column list [0..k); shared so full-arity
// probes need not allocate one.
var identCols = func() []int {
	c := make([]int, 64)
	for i := range c {
		c[i] = i
	}
	return c
}()

func identityCols(arity int) []int {
	if arity <= len(identCols) {
		return identCols[:arity]
	}
	c := make([]int, arity)
	for i := range c {
		c[i] = i
	}
	return c
}

// colsSig packs a column list into one uint64 — 4 bits of length, 7 bits
// per column — as the atom-projection cache key (atomproj.go). Lists
// longer than 8 columns or with column numbers ≥ 126 fall back to a
// byte-string signature (colsSigBig).
func colsSig(cols []int) (uint64, bool) {
	if len(cols) > 8 {
		return 0, false
	}
	sig := uint64(len(cols))
	for i, c := range cols {
		if c >= 126 {
			return 0, false
		}
		sig |= uint64(c+1) << (4 + 7*i)
	}
	return sig, true
}

func colsSigBig(cols []int) string {
	b := make([]byte, 0, 2*len(cols))
	for _, c := range cols {
		b = append(b, byte(c), byte(c>>8))
	}
	return string(b)
}

// --- the index --------------------------------------------------------

// tableEnt is one slot of a shard's hash directory: one distinct key, with
// its fingerprint, its bucket (rows [off, off+n) of the shard's row array)
// and its key values inlined. Keys of up to two columns, all the engines
// emit today, fit in k0/k1, so resolving the exact key is a compare within
// the already-loaded slot instead of a random access into the indexed
// slab. n == 0 marks a free slot (buckets are never empty); 32 bytes per
// slot, two slots per cache line.
type tableEnt struct {
	fp     uint64
	off    int32
	n      int32
	k0, k1 Value
}

// shard holds the buckets of the fingerprints routed to it: a flat
// open-addressing table with one slot per distinct key, and the CSR row
// array the slots' buckets point into. Slots are addressed by the high
// fingerprint bits (the low bits route between shards) and probed
// linearly. Distinct keys that share a fingerprint (a real 64-bit
// collision, or a degraded test hash) are simply further slots with the
// same fp, told apart by comparing keys. The table length is a power of
// two (nil while the shard holds no key) and the table is kept at most
// half full, so every probe sequence ends at a free slot.
type shard struct {
	slots []tableEnt
	keys  int // occupied slots
	rows  []int32
}

// Index is a hash index of a relation's tuples keyed on a column subset.
// Buckets hold row ids into the relation's Slab, one bucket per exact key
// projection, and are partitioned into one or more fingerprint-disjoint
// shards: a sequential build produces a single shard, a parallel build
// (ParIndexOn) one shard per worker. After construction the index is
// read-only, so lookups from many goroutines need no locking, and the
// probe path performs zero allocations.
type Index struct {
	Cols  []int
	slab  Slab
	hash  keyHashFunc
	fast  bool // hash is the default fingerprint, so Slab.HashCols applies
	mask  uint32
	waste int // row slots abandoned by AddRow relocations and RemoveRow shrinks

	// shards is swapped whole by Compact, so concurrent readers keep a
	// consistent view of the layout they loaded.
	shards atomic.Pointer[[]shard]
}

// keyEq reports whether the indexed row's key columns equal the probe's
// probeCols projection.
func (ix *Index) keyEq(row int32, probe Tuple, probeCols []int) bool {
	t := ix.slab.Row(row)
	for i, c := range ix.Cols {
		if t[c] != probe[probeCols[i]] {
			return false
		}
	}
	return true
}

// find walks the probe sequence of fingerprint fp in the shard's table
// and returns the slot holding probe's key, or false at the free slot that
// ends the sequence (at once when the table is empty). One- and two-
// column keys compare against the slot's inlined values, wider ones
// against the bucket's first row.
func (ix *Index) find(sh *shard, fp uint64, probe Tuple, probeCols []int) (uint32, bool) {
	var k0, k1 Value
	switch len(probeCols) {
	case 0:
	case 1:
		k0 = probe[probeCols[0]]
	case 2:
		k0, k1 = probe[probeCols[0]], probe[probeCols[1]]
	default:
		return ix.findWide(sh, fp, probe, probeCols)
	}
	return sh.findKey(fp, k0, k1)
}

// findKey is find for a key of at most two columns, given by its values
// k0 and k1 (zero for an absent column, as insert stores them).
func (sh *shard) findKey(fp uint64, k0, k1 Value) (uint32, bool) {
	if len(sh.slots) == 0 {
		return 0, false
	}
	mask := uint32(len(sh.slots) - 1)
	for i := uint32(fp>>32) & mask; ; i = (i + 1) & mask {
		e := &sh.slots[i]
		if e.n == 0 {
			return i, false
		}
		if e.fp == fp && e.k0 == k0 && e.k1 == k1 {
			return i, true
		}
	}
}

// findWide is find for a key of three or more columns.
func (ix *Index) findWide(sh *shard, fp uint64, probe Tuple, probeCols []int) (uint32, bool) {
	if len(sh.slots) == 0 {
		return 0, false
	}
	mask := uint32(len(sh.slots) - 1)
	for i := uint32(fp>>32) & mask; ; i = (i + 1) & mask {
		e := &sh.slots[i]
		if e.n == 0 {
			return i, false
		}
		if e.fp == fp && ix.keyEq(sh.rows[e.off], probe, probeCols) {
			return i, true
		}
	}
}

// bucket returns the bucket held by table slot i of shard sh.
func (sh *shard) bucket(i uint32) []int32 {
	e := &sh.slots[i]
	return sh.rows[e.off : e.off+e.n : e.off+e.n]
}

// Lookup returns the ids of all rows whose key columns equal probe's
// projection onto probeCols (aligned with the index's Cols). The returned
// slice aliases the index's row array; it is valid until the index is
// garbage collected and must not be modified. Lookup allocates nothing.
func (ix *Index) Lookup(probe Tuple, probeCols []int) []int32 {
	fp := ix.hash(probe, probeCols)
	sh := &(*ix.shards.Load())[uint32(fp)&ix.mask]
	if i, ok := ix.find(sh, fp, probe, probeCols); ok {
		return sh.bucket(i)
	}
	return nil
}

// LookupRow returns the first indexed row matching probe on probeCols, as
// a view into the slab. It allocates nothing.
func (ix *Index) LookupRow(probe Tuple, probeCols []int) (Tuple, bool) {
	ids := ix.Lookup(probe, probeCols)
	if len(ids) == 0 {
		return nil, false
	}
	return ix.slab.Row(ids[0]), true
}

// Contains reports whether some indexed row matches probe on probeCols.
func (ix *Index) Contains(probe Tuple, probeCols []int) bool {
	return len(ix.Lookup(probe, probeCols)) > 0
}

// Row resolves a row id returned by Lookup to its tuple view.
func (ix *Index) Row(id int32) Tuple { return ix.slab.Row(id) }

// Buckets returns the number of distinct keys in the index.
func (ix *Index) Buckets() int {
	n := 0
	for _, sh := range *ix.shards.Load() {
		n += sh.keys
	}
	return n
}

// tableSize is the table length for the given number of keys: the
// smallest power of two (at least 2) that keeps the table at most half
// full.
func tableSize(keys int) int {
	size := 2
	for size < 2*keys {
		size <<= 1
	}
	return size
}

// insert adds a slot for a key the shard does not hold yet: fingerprint
// fp, bucket [off, off+n), and the key values read from rep (any row that
// holds the key). The table doubles first if the new key would fill it
// past half.
func (ix *Index) insert(sh *shard, fp uint64, rep Tuple, off, n int32) {
	if 2*(sh.keys+1) > len(sh.slots) {
		sh.resize(tableSize(sh.keys + 1))
	}
	e := tableEnt{fp: fp, off: off, n: n}
	if len(ix.Cols) >= 1 {
		e.k0 = rep[ix.Cols[0]]
	}
	if len(ix.Cols) >= 2 {
		e.k1 = rep[ix.Cols[1]]
	}
	sh.place(e)
	sh.keys++
}

// place stores e in the first free slot of its probe sequence.
func (sh *shard) place(e tableEnt) {
	mask := uint32(len(sh.slots) - 1)
	i := uint32(e.fp>>32) & mask
	for sh.slots[i].n != 0 {
		i = (i + 1) & mask
	}
	sh.slots[i] = e
}

// resize rehashes the shard's slots into a table of the given length.
func (sh *shard) resize(size int) {
	old := sh.slots
	sh.slots = make([]tableEnt, size)
	for _, e := range old {
		if e.n != 0 {
			sh.place(e)
		}
	}
}

// remove frees slot i by backward-shift deletion: each later slot of the
// same probe run moves back into the hole unless its home slot lies
// cyclically after the hole. No tombstone is left, and every remaining key
// stays reachable from its home slot.
func (sh *shard) remove(i uint32) {
	mask := uint32(len(sh.slots) - 1)
	for j := (i + 1) & mask; sh.slots[j].n != 0; j = (j + 1) & mask {
		home := uint32(sh.slots[j].fp>>32) & mask
		if (j-home)&mask >= (j-i)&mask {
			sh.slots[i] = sh.slots[j]
			i = j
		}
	}
	sh.slots[i] = tableEnt{}
	sh.keys--
}

// buildIndex constructs the index over tuples (backed by sl) keyed on
// cols, with the fingerprint pass and the shard builds fanned out over par
// workers when par ≥ 2. A nil hash selects the default fingerprint
// (Tuple.KeyHash) and additionally enables the batched slab-hashing
// kernel; tests inject a degraded hash to force collisions.
func buildIndex(tuples []Tuple, cols []int, sl Slab, par int, hash keyHashFunc) *Index {
	fast := hash == nil
	if fast {
		hash = defaultKeyHash
	}
	if par > 1 {
		// GOMAXPROCS takes a runtime lock; the sequential build of a
		// small relation, the common case, skips it.
		par = min(par, runtime.GOMAXPROCS(0))
	}
	par = max(par, 1)
	shardCount := 1
	for shardCount < par {
		shardCount <<= 1
	}
	n := len(tuples)
	fps := make([]uint64, n)
	if par < 2 || n < 1024 {
		for i, t := range tuples {
			fps[i] = hash(t, cols)
		}
	} else {
		var wg sync.WaitGroup
		chunk := (n + par - 1) / par
		for w := 0; w < par; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > n {
				hi = n
			}
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int, hash keyHashFunc) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					fps[i] = hash(tuples[i], cols)
				}
			}(lo, hi, hash)
		}
		wg.Wait()
	}
	ix := &Index{
		Cols: append([]int(nil), cols...),
		slab: sl,
		hash: hash,
		fast: fast,
		mask: uint32(shardCount - 1),
	}
	shards := make([]shard, shardCount)
	if shardCount == 1 {
		shards[0] = ix.buildShard(fps, 0)
	} else {
		var wg sync.WaitGroup
		for s := 0; s < shardCount; s++ {
			wg.Add(1)
			go func(s uint32) {
				defer wg.Done()
				shards[s] = ix.buildShard(fps, s)
			}(uint32(s))
		}
		wg.Wait()
	}
	ix.shards.Store(&shards)
	return ix
}

// buildShard builds the table and row array of the rows whose fingerprint
// routes to shard s. The first pass gives each distinct key a slot and
// counts its rows; the second lays the buckets out in the order of each
// key's first row, each bucket listing its rows in ascending id order.
// During the first pass a slot's off is the key's rank in order of
// appearance and the row array holds each key's first row by rank, so
// find reads the same representative row it reads after the layout.
func (ix *Index) buildShard(fps []uint64, s uint32) shard {
	m := len(fps) // rows routed to this shard
	if ix.mask != 0 {
		m = 0
		for _, fp := range fps {
			m += b2i(uint32(fp)&ix.mask == s)
		}
	}
	// The shard holds at most m keys, so one scratch array carries the
	// key rank of each routed row, the rows per key by rank (counts) and
	// each key's first row by rank (the first-pass row array).
	buf := make([]int32, 3*m)
	rank, counts := buf[:0:m], buf[m:m:2*m]
	sh := shard{rows: buf[2*m : 2*m : 3*m]}
	for i, fp := range fps {
		if uint32(fp)&ix.mask != s {
			continue
		}
		t := ix.slab.Row(int32(i))
		j, found := ix.find(&sh, fp, t, ix.Cols)
		k := int32(len(counts))
		if found {
			k = sh.slots[j].off
		} else {
			sh.rows = append(sh.rows, int32(i))
			counts = append(counts, 0)
			ix.insert(&sh, fp, t, k, 1)
		}
		counts[k]++
		rank = append(rank, k)
	}
	// Prefix sums turn counts into bucket starts; the fill advances each
	// start to its bucket's end, which is where the next bucket starts.
	var off int32
	for k, c := range counts {
		counts[k] = off
		off += c
	}
	rows := make([]int32, m)
	r := 0
	for i, fp := range fps {
		if uint32(fp)&ix.mask != s {
			continue
		}
		k := rank[r]
		r++
		rows[counts[k]] = int32(i)
		counts[k]++
	}
	for j := range sh.slots {
		e := &sh.slots[j]
		if e.n == 0 {
			continue
		}
		k := e.off
		e.off = 0
		if k > 0 {
			e.off = counts[k-1]
		}
		e.n = counts[k] - e.off
	}
	sh.rows = rows
	return sh
}

// --- in-place patching ------------------------------------------------
//
// Delta refresh (plan.Prepared.Refresh) patches a bound index instead of
// rebuilding it: inserted rows are appended to the slab and routed into
// their bucket, deleted rows are cut out of theirs. Lookup's contract —
// one contiguous, allocation-free sub-slice per key — is preserved by
// relocating a bucket to the tail of the shard's row array when it cannot
// grow in place; the abandoned slots are tracked in waste so the consumer
// can fall back to a rebuild once the layout degrades too far. Patching
// is NOT safe concurrently with lookups; the refresh path serializes
// both.

// SetSlab repoints the index at a grown slab (from Slab.Append). The new
// slab must extend the indexed one: existing row ids must resolve to the
// same tuples.
func (ix *Index) SetSlab(s Slab) { ix.slab = s }

// Waste returns the number of abandoned row slots accumulated by AddRow
// relocations and RemoveRow shrinks — a proxy for layout degradation.
func (ix *Index) Waste() int { return ix.waste }

// AddRow routes slab row id into its bucket, creating the bucket (a new
// slot, doubling the table when it would pass half full) if the key is
// new. The row must already be present in the slab (SetSlab first when it
// was just appended).
func (ix *Index) AddRow(id int32) {
	t := ix.slab.Row(id)
	fp := ix.hash(t, ix.Cols)
	sh := &(*ix.shards.Load())[uint32(fp)&ix.mask]
	if i, ok := ix.find(sh, fp, t, ix.Cols); ok {
		ix.appendToBucket(sh, &sh.slots[i], id)
		return
	}
	sh.rows = append(sh.rows, id)
	ix.insert(sh, fp, t, int32(len(sh.rows)-1), 1)
}

// appendToBucket grows slot e's bucket by one row: in place when the
// bucket already sits at the tail of the shard's row array, otherwise by
// relocating the whole bucket to the tail (keeping it contiguous for
// Lookup) and abandoning the old slots.
func (ix *Index) appendToBucket(sh *shard, e *tableEnt, id int32) {
	if int(e.off+e.n) != len(sh.rows) {
		off := int32(len(sh.rows))
		sh.rows = append(sh.rows, sh.rows[e.off:e.off+e.n]...)
		ix.waste += int(e.n)
		e.off = off
	}
	sh.rows = append(sh.rows, id)
	e.n++
}

// RemoveRow cuts slab row id out of its bucket, reporting whether it was
// found. The bucket shrinks in place (the removed slot is swapped with the
// bucket's last and abandoned); an emptied bucket frees its table slot.
func (ix *Index) RemoveRow(id int32) bool {
	t := ix.slab.Row(id)
	fp := ix.hash(t, ix.Cols)
	sh := &(*ix.shards.Load())[uint32(fp)&ix.mask]
	i, ok := ix.find(sh, fp, t, ix.Cols)
	if !ok {
		return false
	}
	e := &sh.slots[i]
	for k := e.off; k < e.off+e.n; k++ {
		if sh.rows[k] == id {
			e.n--
			sh.rows[k] = sh.rows[e.off+e.n]
			ix.waste++
			if e.n == 0 {
				sh.remove(i)
			}
			return true
		}
	}
	return false
}

// Compact rebuilds every shard's row array with the buckets laid out
// contiguously, reclaiming the slots abandoned by AddRow relocations and
// RemoveRow shrinks. Row ids are untouched — only the CSR layout changes —
// so refresher state keyed on slab rows stays valid. The rebuilt layout is
// swapped in atomically: Compact is safe concurrently with lookups (in-
// flight bucket slices keep aliasing the old row array, which stays
// intact), but like AddRow/RemoveRow it must be serialized with other
// patching; plan.Cache runs both under its own lock. Returns the number of
// reclaimed slots.
func (ix *Index) Compact() int {
	if ix.waste == 0 {
		return 0
	}
	old := *ix.shards.Load()
	shards := make([]shard, len(old))
	for i := range old {
		shards[i] = compactShard(&old[i], nil)
	}
	reclaimed := ix.waste
	ix.waste = 0
	ix.shards.Store(&shards)
	return reclaimed
}

// Rebase returns a new index over a compacted slab: remap translates every
// old slab row id to its new id, as produced by Relation.CompactSlab.
// Bucket structure — the key grouping and each bucket's content order — is
// preserved exactly, so an enumeration pass over the rebased index visits
// rows in the same order as over the original; only the ids and the (now
// dense) CSR layout change. The receiver is left fully intact, keeping
// in-flight cursors over the old slab valid.
func (ix *Index) Rebase(sl Slab, remap []int32) *Index {
	nix := &Index{Cols: ix.Cols, slab: sl, hash: ix.hash, fast: ix.fast, mask: ix.mask}
	old := *ix.shards.Load()
	shards := make([]shard, len(old))
	for i := range old {
		shards[i] = compactShard(&old[i], remap)
	}
	nix.shards.Store(&shards)
	return nix
}

// compactShard rewrites one shard densely: a copy of its table whose
// buckets point into a fresh row array, laid out in slot order, with row
// ids translated through remap when it is non-nil.
func compactShard(sh *shard, remap []int32) shard {
	live := 0
	for _, e := range sh.slots {
		live += int(e.n)
	}
	ns := shard{slots: make([]tableEnt, len(sh.slots)), keys: sh.keys, rows: make([]int32, 0, live)}
	for i, e := range sh.slots {
		if e.n == 0 {
			continue
		}
		bucket := sh.rows[e.off : e.off+e.n]
		e.off = int32(len(ns.rows))
		ns.slots[i] = e
		for _, id := range bucket {
			if remap != nil {
				id = remap[id]
			}
			ns.rows = append(ns.rows, id)
		}
	}
	return ns
}

// --- KeyMap -----------------------------------------------------------

// KeyMap assigns dense ids [0, Len) to the distinct key-column
// projections of interned tuples. It is the fingerprint analogue of a
// map[string]T keyed on Tuple.Key: collisions are resolved exactly by
// comparing materialized key values, and Find (the probe path) allocates
// nothing. The counting DP of Theorem 4.21 stores its per-separator sums
// in slices indexed by KeyMap ids.
type KeyMap struct {
	cols []int
	m    map[uint64]int32
	keys []Tuple // materialized projection per id
	next []int32 // collision chain: next id with the same fingerprint, or -1
}

// NewKeyMap creates a KeyMap grouping tuples on the given columns.
func NewKeyMap(cols []int) *KeyMap {
	return &KeyMap{cols: append([]int(nil), cols...), m: make(map[uint64]int32)}
}

// Len returns the number of distinct keys interned so far.
func (km *KeyMap) Len() int { return len(km.keys) }

// Key returns the materialized projection of id.
func (km *KeyMap) Key(id int) Tuple { return km.keys[id] }

// Find returns the id of t's projection onto probeCols (aligned with the
// map's columns), or -1. probeCols may differ from the interning columns;
// pass km.Cols-aligned columns of the probing tuple.
func (km *KeyMap) Find(t Tuple, probeCols []int) int {
	fp := t.KeyHash(probeCols)
	id, ok := km.m[fp]
	if !ok {
		return -1
	}
	for {
		k := km.keys[id]
		same := true
		for i := range probeCols {
			if k[i] != t[probeCols[i]] {
				same = false
				break
			}
		}
		if same {
			return int(id)
		}
		if km.next[id] < 0 {
			return -1
		}
		id = km.next[id]
	}
}

// Intern returns the id of t's projection onto the map's columns, adding
// it if new.
func (km *KeyMap) Intern(t Tuple) int {
	if id := km.Find(t, km.cols); id >= 0 {
		return id
	}
	key := make(Tuple, len(km.cols))
	for i, c := range km.cols {
		key[i] = t[c]
	}
	id := int32(len(km.keys))
	km.keys = append(km.keys, key)
	km.next = append(km.next, -1)
	fp := t.KeyHash(km.cols)
	if first, ok := km.m[fp]; ok {
		// Walk to the chain tail (collisions are ~nonexistent).
		at := first
		for km.next[at] >= 0 {
			at = km.next[at]
		}
		km.next[at] = id
	} else {
		km.m[fp] = id
	}
	return int(id)
}
