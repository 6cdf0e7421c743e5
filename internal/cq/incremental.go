package cq

// Incremental maintenance of the enumeration spines (delta-binding).
//
// A bound constant-delay plan holds the fully Yannakakis-reduced "free
// parts" of the Theorem 4.6 construction, frozen into slabs and CSR hash
// indexes. Rebuilding all of that on every base mutation is the re-Bind
// cliff; this file maintains it incrementally instead, in the style of
// counting-based incremental view maintenance (the enumeration-under-
// updates line of "Enumeration Complexity: Incremental Time, Delay and
// Space", PAPERS.md).
//
// The reduced state is a composition of select-project-semijoin nodes:
//
//	b[i]     = π_keep( atom_i ⋉ b[c1] ⋉ ... ⋉ b[ck] )   (elimination pass)
//	up[j]    = part_j ⋉ up[children]                     (bottom-up pass)
//	final[r] = up[r],  final[j] = up[j] ⋉ final[parent]  (top-down pass)
//
// Each node (incNode) maintains its output SET under input deltas with
// counters: per source row a multiplicity and the number of semijoin
// edges with no support ("missing"), per edge a support count for each
// join key, and per output tuple the number of alive source rows
// projecting to it. Every operation restores the invariants locally, so
// the order of deltas within a pass does not matter; a node emits only
// the net presence transitions of its output tuples, which become the
// input deltas of its parent. One topological sweep per Apply therefore
// propagates a base delta to the fully-reduced sets exactly.
//
// Because globally consistent (fully reduced) tuple sets are canonical —
// independent of which join tree the reducer used — the refresher may
// run its own GYO tree over the part schemas and still land on exactly
// the sets the bound core holds. That is what lets Apply patch the
// core's slabs, indexes, and root bucket in place: set-level deltas are
// translated to row-id insertions (Slab.Append + Index.AddRow) and
// removals (Index.RemoveRow, root swap-remove).
//
// Any inconsistency — a delete of an untracked occurrence, a support
// underflow, a full slab, too much accumulated layout waste — makes
// Apply return false WITHOUT attempting repair. The caller must then
// discard the refresher and fall back to a full rebuild, which is always
// correct; partial node-state mutations before the failure are harmless
// because nothing reads the refresher again.

import (
	"fmt"
	"sort"

	"repro/internal/database"
	"repro/internal/hypergraph"
	"repro/internal/logic"
)

// setDelta is the net presence change of a maintained set: tuples that
// appeared and tuples that vanished. The two lists are disjoint.
type setDelta struct {
	add []database.Tuple
	del []database.Tuple
}

// incRow is one tracked source tuple of a node: its multiplicity in the
// (multiset) source, its per-edge join keys, and how many edges
// currently have no support for it. The row is alive — contributes to
// the node's output — iff count > 0 and missing == 0.
type incRow struct {
	t       database.Tuple
	count   int
	missing int
	keys    []string // aligned with the node's edges
}

func (r *incRow) alive() bool { return r.count > 0 && r.missing == 0 }

// incEdge is one semijoin edge of a node: support counts the alive
// output tuples of the child per join key, group collects the source
// rows sharing a key so 0↔1 support transitions can flip their missing
// counters. An edge with no shared columns degenerates to the single key
// "" — support is then the child's output size, matching semijoin's
// no-shared-variables case.
type incEdge struct {
	selfCols  []int // key columns in this node's source schema
	childCols []int // aligned key columns in the child's output schema
	support   map[string]int
	group     map[string][]*incRow
}

// incOut is one output tuple with the number of alive source rows
// projecting to it; the tuple is present iff n > 0.
type incOut struct {
	t database.Tuple
	n int
}

// incNode maintains one select-project-semijoin view. Feed it source and
// child deltas in any order, then call finish to collect the net output
// delta of the pass.
type incNode struct {
	schema   []string
	projCols []int // output projection columns; nil = identity
	edges    []*incEdge
	src      map[string]*incRow
	out      map[string]*incOut
	prev     map[string]bool // presence before this pass, per touched key
	order    []string        // touch order, for deterministic emission
	fail     bool
}

func newIncNode(schema []string, projCols []int) *incNode {
	return &incNode{
		schema:   schema,
		projCols: projCols,
		src:      make(map[string]*incRow),
		out:      make(map[string]*incOut),
		prev:     make(map[string]bool),
	}
}

func (nd *incNode) addEdge(selfCols, childCols []int) {
	nd.edges = append(nd.edges, &incEdge{
		selfCols:  selfCols,
		childCols: childCols,
		support:   make(map[string]int),
		group:     make(map[string][]*incRow),
	})
}

func (nd *incNode) project(t database.Tuple) database.Tuple {
	if nd.projCols == nil {
		return t
	}
	out := make(database.Tuple, len(nd.projCols))
	for i, c := range nd.projCols {
		out[i] = t[c]
	}
	return out
}

// srcAdd raises the multiplicity of source tuple t by n, registering it
// on first sight (computing its edge keys against current support).
func (nd *incNode) srcAdd(t database.Tuple, n int) {
	k := t.FullKey()
	row := nd.src[k]
	if row == nil {
		row = &incRow{t: t, keys: make([]string, len(nd.edges))}
		for ei, e := range nd.edges {
			ek := t.Key(e.selfCols)
			row.keys[ei] = ek
			e.group[ek] = append(e.group[ek], row)
			if e.support[ek] == 0 {
				row.missing++
			}
		}
		nd.src[k] = row
	}
	was := row.alive()
	row.count += n
	if !was && row.alive() {
		nd.outInc(row)
	}
}

// srcDel lowers the multiplicity of source tuple t by n; false signals
// an untracked or over-deleted occurrence (caller must rebuild).
func (nd *incNode) srcDel(t database.Tuple, n int) bool {
	row := nd.src[t.FullKey()]
	if row == nil || row.count < n {
		return false
	}
	was := row.alive()
	row.count -= n
	if was && !row.alive() {
		nd.outDec(row)
	}
	return true
}

// childAdd records one new output tuple of the child behind edge ei.
func (nd *incNode) childAdd(ei int, u database.Tuple) {
	e := nd.edges[ei]
	k := u.Key(e.childCols)
	e.support[k]++
	if e.support[k] == 1 {
		for _, row := range e.group[k] {
			row.missing--
			if row.alive() {
				nd.outInc(row)
			}
		}
	}
}

// childDel records one vanished output tuple of the child behind edge
// ei; false signals a support underflow.
func (nd *incNode) childDel(ei int, u database.Tuple) bool {
	e := nd.edges[ei]
	k := u.Key(e.childCols)
	s := e.support[k]
	if s == 0 {
		return false
	}
	if s > 1 {
		e.support[k] = s - 1
		return true
	}
	delete(e.support, k)
	for _, row := range e.group[k] {
		if row.alive() {
			nd.outDec(row)
		}
		row.missing++
	}
	return true
}

func (nd *incNode) outInc(row *incRow) {
	p := nd.project(row.t)
	k := p.FullKey()
	o := nd.out[k]
	if o == nil {
		o = &incOut{t: p}
		nd.out[k] = o
	}
	nd.touch(k, o)
	o.n++
}

func (nd *incNode) outDec(row *incRow) {
	k := nd.project(row.t).FullKey()
	o := nd.out[k]
	if o == nil || o.n == 0 {
		nd.fail = true
		return
	}
	nd.touch(k, o)
	o.n--
}

func (nd *incNode) touch(k string, o *incOut) {
	if _, seen := nd.prev[k]; !seen {
		nd.prev[k] = o.n > 0
		nd.order = append(nd.order, k)
	}
}

// finish collects the net presence transitions of the pass, in first-
// touch order (deterministic for a given delta), and resets the pass
// bookkeeping.
func (nd *incNode) finish() (setDelta, bool) {
	if nd.fail {
		return setDelta{}, false
	}
	var d setDelta
	for _, k := range nd.order {
		o := nd.out[k]
		now := o.n > 0
		if now && !nd.prev[k] {
			d.add = append(d.add, o.t)
		}
		if !now && nd.prev[k] {
			d.del = append(d.del, o.t)
		}
		if o.n == 0 {
			delete(nd.out, k)
		}
		delete(nd.prev, k)
	}
	nd.order = nd.order[:0]
	return d, true
}

// --- atom filtering ---------------------------------------------------

// atomFilter replicates AtomRelation at the tuple level: the constant and
// repeated-variable selection plus the projection onto the atom's
// distinct variables (first-occurrence columns). Feeding every base
// occurrence through it yields the atom's relation as a multiset, which
// is what survives duplicate inserts and occurrence-level deletes.
type atomFilter struct {
	pred   string
	eq     []int
	consts []database.Value
	cols   []int
}

func newAtomFilter(a logic.Atom) atomFilter {
	f := atomFilter{pred: a.Pred}
	f.eq, f.consts = atomShape(a)
	for i, p := range f.eq {
		if p == i {
			f.cols = append(f.cols, i)
		}
	}
	return f
}

func (f *atomFilter) proj(t database.Tuple) database.Tuple {
	out := make(database.Tuple, len(f.cols))
	for i, c := range f.cols {
		out[i] = t[c]
	}
	return out
}

// feed pushes one base-relation delta through the filter into the node's
// source. Inserts land before deletes (the caller batches them so), so a
// net-zero churn inside one window cannot underflow the counters.
func (f *atomFilter) feed(nd *incNode, d database.Delta) bool {
	for _, t := range d.Ins {
		if database.AtomMatches(t, f.eq, f.consts) {
			nd.srcAdd(f.proj(t), 1)
		}
	}
	for _, t := range d.Del {
		if database.AtomMatches(t, f.eq, f.consts) {
			if !nd.srcDel(f.proj(t), 1) {
				return false
			}
		}
	}
	return true
}

// sharedCols returns the aligned column lists of the variables shared by
// the two schemas, in a's order.
func sharedCols(a, b []string) (ac, bc []int) {
	for i, v := range a {
		for j, w := range b {
			if v == w {
				ac = append(ac, i)
				bc = append(bc, j)
				break
			}
		}
	}
	return ac, bc
}

// --- constant-delay refresher -----------------------------------------

// ConstRefresher incrementally maintains a bound OdometerCore under base
// relation deltas. Built by NewConstRefresher together with the core it
// patches; Apply pushes one delta batch through the maintenance pipeline
// and patches the core's slabs, indexes, and root bucket in place. A
// false return means the refresher could not apply the delta safely —
// the caller must discard BOTH the refresher and the core and rebuild.
type ConstRefresher struct {
	q       *logic.CQ
	headIdx int

	// Elimination layer: one node per query atom, in join-tree postorder.
	filters      []atomFilter
	atomNodes    []*incNode
	atomChildren [][]int
	atomPostord  []int

	// Part reduction layers over the refresher's own join tree of the
	// part schemas (valid by join-tree independence of full reduction).
	partNode   []int // part p's atom-layer node index
	upNodes    []*incNode
	finNodes   []*incNode
	upChildren [][]int
	upPostord  []int
	upParent   []int
	upRoot     int

	// Core patching state.
	core     *OdometerCore
	pos      []map[string]int32 // per core position: tuple key -> row id
	rootIdx  map[int32]int      // root row id -> index in core.root
	sizes    []int              // live rows per core position
	baseRows int                // live rows at build time (waste budget)
	churn    int                // rows appended + removed since build
}

// NewConstRefresher builds the maintenance pipeline for a free-connex
// query over db, materializes the fully-reduced free parts by feeding
// the entire base through it (build IS the first Apply, from empty), and
// returns the refresher together with the OdometerCore it maintains.
func NewConstRefresher(db *database.Database, q *logic.CQ) (*ConstRefresher, *OdometerCore, error) {
	t, err := BuildTree(db, q, true)
	if err != nil {
		return nil, nil, err
	}
	cr := &ConstRefresher{
		q:            q,
		headIdx:      t.HeadIdx,
		filters:      make([]atomFilter, len(t.Rels)),
		atomNodes:    make([]*incNode, len(t.Rels)),
		atomChildren: t.children,
		atomPostord:  t.postord,
	}
	freeSet := headSet(q)
	outSchema := make([][]string, len(t.Rels))
	for i := range t.Rels {
		if i == cr.headIdx {
			continue
		}
		a := q.Atoms[i]
		cr.filters[i] = newAtomFilter(a)
		schema := a.Vars()
		keep := make(map[string]bool)
		p := t.JT.Parent[i]
		var pe hypergraph.Edge
		if p >= 0 {
			pe = t.JT.Nodes[p]
		}
		for _, v := range schema {
			if freeSet[v] || (p >= 0 && pe.Has(v)) {
				keep[v] = true
			}
		}
		outSchema[i] = sortedVars(keep)
		projCols := make([]int, len(outSchema[i]))
		for k, v := range outSchema[i] {
			projCols[k] = Rel{Schema: schema}.col(v)
		}
		cr.atomNodes[i] = newIncNode(schema, projCols)
	}
	// Edges need every child's output schema, so a second sweep.
	for i := range t.Rels {
		if i == cr.headIdx {
			continue
		}
		nd := cr.atomNodes[i]
		for _, ch := range t.children[i] {
			sc, cc := sharedCols(nd.schema, outSchema[ch])
			nd.addEdge(sc, cc)
		}
	}

	// Part layers: the head's children carry the free parts.
	cr.partNode = t.children[cr.headIdx]
	if len(cr.partNode) == 0 {
		return nil, nil, fmt.Errorf("cq: internal: head node has no children for %s", q.Name)
	}
	partSchemas := make([][]string, len(cr.partNode))
	h := hypergraph.New()
	for p, node := range cr.partNode {
		partSchemas[p] = outSchema[node]
		h.AddEdge(hypergraph.NewEdge(fmt.Sprintf("V%d", p), partSchemas[p]...))
	}
	jt, ok := hypergraph.GYO(h)
	if !ok {
		return nil, nil, fmt.Errorf("cq: internal: head-part schemas not acyclic")
	}
	cr.upChildren = jt.Children()
	cr.upPostord = postorder(jt)
	cr.upParent = jt.Parent
	cr.upRoot = jt.Root()
	cr.upNodes = make([]*incNode, len(cr.partNode))
	cr.finNodes = make([]*incNode, len(cr.partNode))
	for p := range cr.partNode {
		cr.upNodes[p] = newIncNode(partSchemas[p], nil)
		cr.finNodes[p] = newIncNode(partSchemas[p], nil)
	}
	for p := range cr.partNode {
		for _, cc := range cr.upChildren[p] {
			sc, ccols := sharedCols(partSchemas[p], partSchemas[cc])
			cr.upNodes[p].addEdge(sc, ccols)
		}
		if p != cr.upRoot {
			sc, pc := sharedCols(partSchemas[p], partSchemas[cr.upParent[p]])
			cr.finNodes[p].addEdge(sc, pc)
		}
	}

	// Initial state: the whole base is the first delta (from empty).
	initial := make(map[string]database.Delta)
	for i := range t.Rels {
		if i == cr.headIdx {
			continue
		}
		pred := q.Atoms[i].Pred
		if _, done := initial[pred]; !done {
			initial[pred] = database.Delta{Ins: db.Relation(pred).Tuples}
		}
	}
	finOut, ok := cr.runPipeline(initial)
	if !ok {
		return nil, nil, fmt.Errorf("cq: internal: initial maintenance pass failed for %s", q.Name)
	}
	parts := make([]Rel, len(cr.partNode))
	for p := range parts {
		parts[p] = Rel{
			Schema: partSchemas[p],
			R:      database.FromTuples(fmt.Sprintf("P%d", p), len(partSchemas[p]), finOut[p].add),
		}
	}
	// The parts are already fully reduced, so the core's internal
	// reduction passes change nothing (full reduction is idempotent, and
	// its result is the same for any join tree).
	core, err := NewOdometerCore(q.Head, parts, nil)
	if err != nil {
		return nil, nil, err
	}
	cr.core = core
	cr.pos = make([]map[string]int32, len(core.order))
	cr.sizes = make([]int, len(core.order))
	for j := range core.order {
		rel := core.rels[j].R
		cr.sizes[j] = rel.Len()
		cr.baseRows += rel.Len()
		cr.pos[j] = make(map[string]int32, rel.Len())
		for i, tp := range rel.Tuples {
			cr.pos[j][tp.FullKey()] = int32(i)
		}
	}
	cr.rootIdx = make(map[int32]int, len(core.root))
	for i, id := range core.root {
		cr.rootIdx[id] = i
	}
	return cr, core, nil
}

// runPipeline pushes one base delta batch through the three maintenance
// layers and returns the net delta of each fully-reduced part.
func (cr *ConstRefresher) runPipeline(deltas map[string]database.Delta) ([]setDelta, bool) {
	nodeOut := make([]setDelta, len(cr.atomNodes))
	for _, i := range cr.atomPostord {
		if i == cr.headIdx {
			continue
		}
		nd := cr.atomNodes[i]
		if !cr.filters[i].feed(nd, deltas[cr.filters[i].pred]) {
			return nil, false
		}
		for ei, ch := range cr.atomChildren[i] {
			for _, u := range nodeOut[ch].add {
				nd.childAdd(ei, u)
			}
			for _, u := range nodeOut[ch].del {
				if !nd.childDel(ei, u) {
					return nil, false
				}
			}
		}
		var ok bool
		if nodeOut[i], ok = nd.finish(); !ok {
			return nil, false
		}
	}

	upOut := make([]setDelta, len(cr.partNode))
	for _, j := range cr.upPostord {
		nd := cr.upNodes[j]
		d := nodeOut[cr.partNode[j]]
		for _, u := range d.add {
			nd.srcAdd(u, 1)
		}
		for _, u := range d.del {
			if !nd.srcDel(u, 1) {
				return nil, false
			}
		}
		for ei, cc := range cr.upChildren[j] {
			for _, u := range upOut[cc].add {
				nd.childAdd(ei, u)
			}
			for _, u := range upOut[cc].del {
				if !nd.childDel(ei, u) {
					return nil, false
				}
			}
		}
		var ok bool
		if upOut[j], ok = nd.finish(); !ok {
			return nil, false
		}
	}

	finOut := make([]setDelta, len(cr.partNode))
	// Reverse postorder visits parents before children: final[parent] is
	// settled before its delta feeds the child's edge.
	for k := len(cr.upPostord) - 1; k >= 0; k-- {
		j := cr.upPostord[k]
		nd := cr.finNodes[j]
		for _, u := range upOut[j].add {
			nd.srcAdd(u, 1)
		}
		for _, u := range upOut[j].del {
			if !nd.srcDel(u, 1) {
				return nil, false
			}
		}
		if j != cr.upRoot {
			p := cr.upParent[j]
			for _, u := range finOut[p].add {
				nd.childAdd(0, u)
			}
			for _, u := range finOut[p].del {
				if !nd.childDel(0, u) {
					return nil, false
				}
			}
		}
		var ok bool
		if finOut[j], ok = nd.finish(); !ok {
			return nil, false
		}
	}
	return finOut, true
}

// Apply pushes one base delta batch through the pipeline and patches the
// bound core in place. On false the refresher and the core must both be
// discarded (node state may have advanced past the core's), and the
// caller rebuilds from scratch — always safe, never wrong answers.
func (cr *ConstRefresher) Apply(deltas map[string]database.Delta) bool {
	// Bounded degradation: once patching has churned a large fraction of
	// the originally bound rows, slab tombstones and index waste make a
	// rebuild both cheaper and cleaner.
	if cr.churn > cr.baseRows/2+1024 {
		return false
	}
	finOut, ok := cr.runPipeline(deltas)
	if !ok {
		return false
	}
	core := cr.core
	for p, d := range finOut {
		j := core.origPos[p]
		for _, t := range d.del {
			k := t.FullKey()
			id, ok := cr.pos[j][k]
			if !ok {
				return false
			}
			if j == 0 {
				ri, ok := cr.rootIdx[id]
				if !ok {
					return false
				}
				last := len(core.root) - 1
				core.root[ri] = core.root[last]
				cr.rootIdx[core.root[ri]] = ri
				core.root = core.root[:last]
				delete(cr.rootIdx, id)
			} else if !core.idx[j].RemoveRow(id) {
				return false
			}
			delete(cr.pos[j], k)
			cr.sizes[j]--
			cr.churn++
		}
		for _, t := range d.add {
			var id int32
			if len(core.rels[j].Schema) == 0 {
				// Arity-0 part: the maintained set is {} or {()}, so the
				// single (empty) row always has id 0 and the slab — which
				// cannot store zero-width rows — is left untouched. Index
				// probes over the empty column set never read the slab.
				if j != 0 {
					core.idx[j].AddRow(0)
				}
			} else {
				if core.slabs[j].Full() {
					return false
				}
				var slab database.Slab
				slab, id = core.slabs[j].Append(t)
				core.slabs[j] = slab
				if j != 0 {
					core.idx[j].SetSlab(slab)
					core.idx[j].AddRow(id)
				}
			}
			if j == 0 {
				cr.rootIdx[id] = len(core.root)
				core.root = append(core.root, id)
			}
			cr.pos[j][t.FullKey()] = id
			cr.sizes[j]++
			cr.churn++
		}
	}
	core.dead = false
	for _, n := range cr.sizes {
		if n == 0 {
			core.dead = true
		}
	}
	return true
}

// SlabWaste totals the tombstoned slab rows across the core's positions:
// storage grown by Apply that deletes have since abandoned (root
// swap-remove and Index.RemoveRow drop the row id but never the slot, so
// under delete/insert churn the slabs only grow).
func (cr *ConstRefresher) SlabWaste() int {
	w := 0
	for j := range cr.core.slabs {
		if n := cr.core.slabs[j].Len() - cr.sizes[j]; n > 0 {
			w += n
		}
	}
	return w
}

// CompactSlabs rebuilds the row storage of every core position whose slab
// holds at least minWaste tombstoned rows, returning a fresh core over the
// compacted slabs (nil when no position crossed the threshold) and the
// number of rows reclaimed. The old core is left fully intact — live
// enumeration cursors keep reading it — so the caller must republish the
// returned core for new cursors; the refresher itself switches over
// immediately and subsequent Apply calls patch the new core.
//
// Live rows are re-laid-out in ascending old-id order and each index is
// rebased structure-preservingly (Index.Rebase), so bucket contents and
// the root sequence keep their exact enumeration order: pagination
// cursors minted at the current generation resolve to the same answers
// against the compacted core.
func (cr *ConstRefresher) CompactSlabs(minWaste int) (*OdometerCore, int) {
	core := cr.core
	var ncore *OdometerCore
	reclaimed := 0
	for j := range core.slabs {
		waste := core.slabs[j].Len() - cr.sizes[j]
		if waste < minWaste {
			continue // arity-0 positions report Len 0 and never qualify
		}
		if ncore == nil {
			c := *core
			c.slabs = append([]database.Slab(nil), core.slabs...)
			c.idx = append([]*database.Index(nil), core.idx...)
			ncore = &c
		}
		live := make([]int32, 0, cr.sizes[j])
		for _, id := range cr.pos[j] {
			live = append(live, id)
		}
		sort.Slice(live, func(a, b int) bool { return live[a] < live[b] })
		sl, remap := core.rels[j].R.CompactSlab(core.slabs[j], live)
		ncore.slabs[j] = sl
		if j == 0 {
			// The root bucket holds exactly the live ids (deletes swap-
			// remove), so every remap hit is valid; order is preserved
			// elementwise.
			nroot := make([]int32, len(core.root))
			for i, id := range core.root {
				nroot[i] = remap[id]
			}
			ncore.root = nroot
			cr.rootIdx = make(map[int32]int, len(nroot))
			for i, id := range nroot {
				cr.rootIdx[id] = i
			}
		} else {
			ncore.idx[j] = core.idx[j].Rebase(sl, remap)
		}
		np := make(map[string]int32, len(cr.pos[j]))
		for k, id := range cr.pos[j] {
			np[k] = remap[id]
		}
		cr.pos[j] = np
		reclaimed += waste
	}
	if ncore == nil {
		return nil, 0
	}
	cr.core = ncore
	// Compaction restored density, so the churn budget that forces the
	// eventual full rebuild resets to the remaining (sub-threshold) waste:
	// sustained delete/insert churn stays on the delta path indefinitely
	// instead of hitting the rebuild cliff every baseRows/2 mutations.
	cr.baseRows = 0
	for _, n := range cr.sizes {
		cr.baseRows += n
	}
	cr.churn = cr.SlabWaste()
	return ncore, reclaimed
}

// --- linear-delay refresher -------------------------------------------

// LinearRefresher incrementally maintains a LinearPrep's fully-reduced
// base relations under base deltas. The maintained relations are patched
// through InsertBatch/DeleteBatch — enumeration passes restrict copies,
// so no row ids dangle — and the boolean fast path is kept in sync.
type LinearRefresher struct {
	q *logic.CQ
	t *Tree

	filters   []atomFilter
	atomNodes []*incNode // atom multiset → set
	upNodes   []*incNode
	finNodes  []*incNode

	rels []Rel // maintained fully-reduced base, aligned with t.Rels
	lp   *LinearPrep
}

// NewLinearRefresher builds the maintenance pipeline for an acyclic
// query, materializes its fully-reduced base by feeding the entire
// database through it, and returns the refresher with the LinearPrep it
// maintains.
func NewLinearRefresher(db *database.Database, q *logic.CQ) (*LinearRefresher, *LinearPrep, error) {
	t, err := BuildTree(db, q, false)
	if err != nil {
		return nil, nil, err
	}
	lr := &LinearRefresher{
		q:         q,
		t:         t,
		filters:   make([]atomFilter, len(t.Rels)),
		atomNodes: make([]*incNode, len(t.Rels)),
		upNodes:   make([]*incNode, len(t.Rels)),
		finNodes:  make([]*incNode, len(t.Rels)),
		rels:      make([]Rel, len(t.Rels)),
	}
	root := t.JT.Root()
	for i := range t.Rels {
		a := q.Atoms[i]
		lr.filters[i] = newAtomFilter(a)
		schema := a.Vars()
		lr.atomNodes[i] = newIncNode(schema, nil)
		lr.upNodes[i] = newIncNode(schema, nil)
		lr.finNodes[i] = newIncNode(schema, nil)
	}
	for i := range t.Rels {
		for _, ch := range t.children[i] {
			sc, cc := sharedCols(lr.upNodes[i].schema, lr.upNodes[ch].schema)
			lr.upNodes[i].addEdge(sc, cc)
		}
		if i != root {
			p := t.JT.Parent[i]
			sc, pc := sharedCols(lr.finNodes[i].schema, lr.finNodes[p].schema)
			lr.finNodes[i].addEdge(sc, pc)
		}
	}

	initial := make(map[string]database.Delta)
	for i := range t.Rels {
		pred := q.Atoms[i].Pred
		if _, done := initial[pred]; !done {
			initial[pred] = database.Delta{Ins: db.Relation(pred).Tuples}
		}
	}
	finOut, ok := lr.runPipeline(initial)
	if !ok {
		return nil, nil, fmt.Errorf("cq: internal: initial maintenance pass failed for %s", q.Name)
	}
	for i := range t.Rels {
		lr.rels[i] = Rel{
			Schema: lr.atomNodes[i].schema,
			R:      database.FromTuples(q.Atoms[i].Pred, len(lr.atomNodes[i].schema), finOut[i].add),
		}
	}
	lr.lp = &LinearPrep{t: t, head: q.Head, boolean: len(q.Head) == 0}
	lr.sync()
	return lr, lr.lp, nil
}

// runPipeline pushes one base delta batch through the atom, bottom-up,
// and top-down layers, returning the net delta of each fully-reduced
// base relation.
func (lr *LinearRefresher) runPipeline(deltas map[string]database.Delta) ([]setDelta, bool) {
	t := lr.t
	atomOut := make([]setDelta, len(t.Rels))
	for i := range t.Rels {
		nd := lr.atomNodes[i]
		if !lr.filters[i].feed(nd, deltas[lr.filters[i].pred]) {
			return nil, false
		}
		var ok bool
		if atomOut[i], ok = nd.finish(); !ok {
			return nil, false
		}
	}

	upOut := make([]setDelta, len(t.Rels))
	for _, i := range t.postord {
		nd := lr.upNodes[i]
		for _, u := range atomOut[i].add {
			nd.srcAdd(u, 1)
		}
		for _, u := range atomOut[i].del {
			if !nd.srcDel(u, 1) {
				return nil, false
			}
		}
		for ei, ch := range t.children[i] {
			for _, u := range upOut[ch].add {
				nd.childAdd(ei, u)
			}
			for _, u := range upOut[ch].del {
				if !nd.childDel(ei, u) {
					return nil, false
				}
			}
		}
		var ok bool
		if upOut[i], ok = nd.finish(); !ok {
			return nil, false
		}
	}

	root := t.JT.Root()
	finOut := make([]setDelta, len(t.Rels))
	for k := len(t.postord) - 1; k >= 0; k-- {
		i := t.postord[k]
		nd := lr.finNodes[i]
		for _, u := range upOut[i].add {
			nd.srcAdd(u, 1)
		}
		for _, u := range upOut[i].del {
			if !nd.srcDel(u, 1) {
				return nil, false
			}
		}
		if i != root {
			p := t.JT.Parent[i]
			for _, u := range finOut[p].add {
				nd.childAdd(0, u)
			}
			for _, u := range finOut[p].del {
				if !nd.childDel(0, u) {
					return nil, false
				}
			}
		}
		var ok bool
		if finOut[i], ok = nd.finish(); !ok {
			return nil, false
		}
	}
	return finOut, true
}

// sync re-derives the LinearPrep's derived state from the maintained
// relations: base is exposed only when the join is nonempty (all reduced
// relations nonempty), and boolean queries resolve to that same check.
func (lr *LinearRefresher) sync() {
	nonempty := true
	for _, r := range lr.rels {
		if r.R.Len() == 0 {
			nonempty = false
		}
	}
	if lr.lp.boolean {
		lr.lp.boolOK = nonempty
		return
	}
	if nonempty {
		lr.lp.base = lr.rels
	} else {
		lr.lp.base = nil
	}
}

// Apply pushes one base delta batch through the pipeline and patches the
// maintained relations. On false the refresher and prep must be
// discarded and rebuilt.
func (lr *LinearRefresher) Apply(deltas map[string]database.Delta) bool {
	finOut, ok := lr.runPipeline(deltas)
	if !ok {
		return false
	}
	for i := range lr.rels {
		d := finOut[i]
		if len(d.del) > 0 && lr.rels[i].R.DeleteBatch(d.del) != len(d.del) {
			return false
		}
		if err := lr.rels[i].R.InsertBatch(d.add); err != nil {
			return false
		}
	}
	lr.sync()
	return true
}
