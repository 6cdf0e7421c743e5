package database

// Vectorized batch execution over the columnar slabs.
//
// The scalar probe path (Index.Lookup) hashes one probe tuple and walks
// the shard's hash directory for it. The batch kernels in this file walk
// the very same directory and amortize the rest across runs of probe
// rows:
//
//   - Index.resolve reads a run's one- or two-column keys straight from
//     the flat slab data, hashes them and finds their table slots in one
//     pass, with no per-tuple slice header formed; a probe that misses
//     never touches the indexed slab. A one-key table (a relation
//     restricted to one value, as the linear-delay enumerator makes per
//     answer) is probed by comparing keys, with no hashing at all.
//   - Survivor row ids are compacted branch-free into pooled []int32
//     scratch buffers, so the warm probe path performs zero allocations.
//
// Counted steps are untouched: the delay counters of internal/cq tick per
// intermediate-result tuple, and the batch kernels return exactly the rows
// the scalar path returns, in exactly the same order. The scalar kernels
// (SemijoinScalar, JoinScalar, Index.Lookup) remain in place as the oracle
// for the differential suites.

import "sync"

// probeBatch is the number of probe rows resolved per inner pass; it
// bounds the scratch's fps and hit buffers so a run stays in L1.
const probeBatch = 256

// --- batched fingerprints ---------------------------------------------

// HashCols writes the key fingerprint of each listed row's projection onto
// cols into dst (len(dst) ≥ len(rowIDs)). The fingerprints are bit-
// identical to Tuple.KeyHash on the same projection. The probe kernels
// hash one- and two-column keys inline (resolve); this loop serves the
// wider ones.
func (s Slab) HashCols(cols []int, rowIDs []int32, dst []uint64) {
	seed := keyHashSeed ^ uint64(len(cols))
	data, ar := s.data, s.arity
	for i, id := range rowIDs {
		base := int(id) * ar
		h := seed
		for _, c := range cols {
			h = foldHash(h, data[base+c])
		}
		dst[i] = h
	}
}

// hashRows fingerprints a run of probe rows: through the flat slab kernel
// when the index uses the default fingerprint, row-at-a-time through the
// injected hash otherwise (identical bits either way).
func (ix *Index) hashRows(sl Slab, cols []int, rowIDs []int32, dst []uint64) {
	if ix.fast {
		sl.HashCols(cols, rowIDs, dst)
		return
	}
	for i, id := range rowIDs {
		dst[i] = ix.hash(sl.Row(id), cols)
	}
}

// --- scratch ----------------------------------------------------------

// BatchScratch holds the reusable buffers of the batch kernels: the
// fingerprint and slot staging areas, the survivor buffer, and an iota
// buffer for whole-relation probes. Scratches are pooled
// (GetScratch/Release); a warm kernel call allocates nothing.
type BatchScratch struct {
	fps  [probeBatch]uint64
	hit  [probeBatch]int32 // table slot holding each probe's key, or -1
	ids  []int32           // iota buffer handed to kernels as rowIDs
	keep []int32           // survivor buffer returned by ContainsBatch
}

var scratchPool = sync.Pool{New: func() any { return new(BatchScratch) }}

// GetScratch returns a scratch from the pool.
func GetScratch() *BatchScratch { return scratchPool.Get().(*BatchScratch) }

// Release returns the scratch to the pool. Buffers previously returned by
// ContainsBatch on this scratch are invalid afterwards.
func (sc *BatchScratch) Release() { scratchPool.Put(sc) }

// Iota fills the scratch's id buffer with row ids [0, n) — the rowIDs
// argument for probing a whole relation.
func (sc *BatchScratch) Iota(n int) []int32 {
	return sc.IotaRange(0, n)
}

// IotaRange fills the scratch's id buffer with row ids [lo, hi).
func (sc *BatchScratch) IotaRange(lo, hi int) []int32 {
	n := hi - lo
	if cap(sc.ids) < n {
		sc.ids = make([]int32, n)
	}
	ids := sc.ids[:n]
	for i := range ids {
		ids[i] = int32(lo + i)
	}
	return ids
}

func (sc *BatchScratch) growKeep(n int) []int32 {
	if cap(sc.keep) < n {
		sc.keep = make([]int32, n)
	}
	return sc.keep[:n]
}

// b2i returns 1 for true and 0 for false; the compiler lowers it to a
// conditional move, keeping the survivor compaction below branch-free.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// --- batched probes ---------------------------------------------------

// resolve finds the key of each probe row of a run (at most probeBatch
// rows) in the table, writing its slot to sc.hit (-1 when absent) and its
// fingerprint, which routes it to its shard, to sc.fps. Under the default
// fingerprint a key of one or two columns is read from the slab data
// once, hashed and compared in a single pass with no row view formed;
// other probes hash the run first and then walk find row by row.
func (ix *Index) resolve(shards []shard, sl Slab, probeCols []int, batch []int32, sc *BatchScratch) {
	fps, hit := sc.fps[:len(batch)], sc.hit[:len(batch)]
	if !ix.fast || len(probeCols) == 0 || len(probeCols) > 2 {
		ix.hashRows(sl, probeCols, batch, fps)
		for i, id := range batch {
			j, ok := ix.find(&shards[uint32(fps[i])&ix.mask], fps[i], sl.Row(id), probeCols)
			hit[i] = slotOrMiss(j, ok)
		}
		return
	}
	data, ar := sl.data, sl.arity
	c0, c1 := probeCols[0], probeCols[len(probeCols)-1]
	two := len(probeCols) == 2
	if len(shards) == 1 && shards[0].keys == 1 {
		// A one-key table, as a relation restricted to one value leaves:
		// a probe hits exactly when its key equals the slot's, so nothing
		// is hashed, and sc.fps is left as is (one shard needs no
		// routing).
		j := uint32(0)
		for shards[0].slots[j].n == 0 {
			j++
		}
		e := &shards[0].slots[j]
		for i, id := range batch {
			base := int(id) * ar
			var k1 Value
			if two {
				k1 = data[base+c1]
			}
			hit[i] = slotOrMiss(j, data[base+c0] == e.k0 && k1 == e.k1)
		}
		return
	}
	seed := keyHashSeed ^ uint64(len(probeCols))
	for i, id := range batch {
		base := int(id) * ar
		k0 := data[base+c0]
		fp := foldHash(seed, k0)
		var k1 Value
		if two {
			k1 = data[base+c1]
			fp = foldHash(fp, k1)
		}
		j, ok := shards[uint32(fp)&ix.mask].findKey(fp, k0, k1)
		fps[i] = fp
		hit[i] = slotOrMiss(j, ok)
	}
}

func slotOrMiss(j uint32, ok bool) int32 {
	if ok {
		return int32(j)
	}
	return -1
}

// hitBucket returns the bucket of probe i of the run last resolved on sc,
// which must be a hit.
func (ix *Index) hitBucket(shards []shard, sc *BatchScratch, i int) []int32 {
	return shards[uint32(sc.fps[i])&ix.mask].bucket(uint32(sc.hit[i]))
}

// ContainsBatch filters rowIDs (rows of the probe slab sl) down to those
// whose probeCols projection matches some indexed row, preserving input
// order. The result aliases the scratch's survivor buffer: it is valid
// until the next ContainsBatch on the same scratch and must not be
// modified. A warm call (scratch buffers grown) allocates nothing.
func (ix *Index) ContainsBatch(sl Slab, probeCols []int, rowIDs []int32, sc *BatchScratch) []int32 {
	shards := *ix.shards.Load()
	n := len(rowIDs)
	keep := sc.growKeep(n)
	k := 0
	for lo := 0; lo < n; lo += probeBatch {
		batch := rowIDs[lo:min(lo+probeBatch, n)]
		ix.resolve(shards, sl, probeCols, batch, sc)
		for i, id := range batch {
			// Branch-free compaction: unconditional store, conditional
			// advance.
			keep[k] = id
			k += b2i(sc.hit[i] >= 0)
		}
	}
	return keep[:k]
}

// LookupBatch resolves the bucket of every probe row and hands non-empty
// ones to emit in input order: emit(i, ids) receives the position i of the
// probe within rowIDs and its bucket (aliasing the index's row array, like
// Lookup). Beyond the emit calls themselves, a warm call allocates
// nothing.
func (ix *Index) LookupBatch(sl Slab, probeCols []int, rowIDs []int32, sc *BatchScratch, emit func(i int, ids []int32)) {
	shards := *ix.shards.Load()
	n := len(rowIDs)
	for lo := 0; lo < n; lo += probeBatch {
		batch := rowIDs[lo:min(lo+probeBatch, n)]
		ix.resolve(shards, sl, probeCols, batch, sc)
		for i := range batch {
			if sc.hit[i] >= 0 {
				emit(lo+i, ix.hitBucket(shards, sc, i))
			}
		}
	}
}
