package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/database"
	"repro/internal/logic"
)

// The generated database: binary relations r00..r55 holding 5·2^15
// tuples, every value drawn uniformly from [0, domain). The warm queries
// read r00..r23 (8 of 2^13 rows, 16 of 2^12); the cold-scan queries read
// r24..r55 (32 of 2^10 rows). A two-atom join over relations of n and m
// rows then has about n·m/domain answers and a three-atom path about
// n·m·k/domain², which keeps every warm query between 10^3 and 10^6
// answers and every cold-scan stream near 2^8.
const (
	domain      = 1 << 12
	minAnswers  = 1_000
	maxAnswers  = 1_000_000
	coldQueries = 384 // cold-scan: 1.5× qservd's default plan-cache bound (256)
)

var relSizes = func() []int {
	var s []int
	for i := 0; i < 8; i++ {
		s = append(s, 1<<13)
	}
	for i := 0; i < 16; i++ {
		s = append(s, 1<<12)
	}
	for i := 0; i < 32; i++ {
		s = append(s, 1<<10)
	}
	return s
}()

func relName(i int) string { return fmt.Sprintf("r%02d", i) }

// dataset is everything one seed determines: the database, the query
// texts of both query sets, and the balanced mutation script.
type dataset struct {
	seed    int64
	db      *database.Database
	present []map[[2]int64]bool // per relation: the tuples it holds
	warm    []query             // read-warm and churn
	cold    []query             // cold-scan
}

// query is one workload statement. linear marks the linear-delay route
// (acyclic, not free-connex); the others take the constant-delay route.
type query struct {
	text   string
	cq     *logic.CQ
	linear bool
	rels   []int
}

// Relation size classes: the warm queries read L (r00..r07, 2^13 rows)
// and M (r08..r23, 2^12 rows); cold-scan reads S (r24..r55, 2^10 rows).
const (
	classL = iota
	classM
	classS
)

var classRels = [][2]int{{0, 8}, {8, 24}, {24, 56}}

// template is a query shape over relations A, B, C (bound to %[1]s,
// %[2]s, %[3]s), the size class of each atom's relation, and how many
// statements of the query set it yields. The composition is fixed, so
// every seed's query set costs about the same; the seed picks which
// relations of each class a statement reads, and the data.
type template struct {
	text   string
	class  []int
	linear bool
	n      int
}

// warmTemplates: 16 free-connex (constant-delay) and 16 acyclic but not
// free-connex (linear-delay) statements, each with 2.5·10^3 to 1.6·10^4
// answers.
var warmTemplates = []template{
	{"Q(x,y,z) :- %[1]s(x,y), %[2]s(y,z).", []int{classM, classM}, false, 2},
	{"Q(x,y,z) :- %[1]s(x,y), %[2]s(y,z).", []int{classL, classM}, false, 2},
	{"Q(x,y) :- %[1]s(x,y), %[2]s(y,z).", []int{classL, classM}, false, 2},
	{"Q(x,y) :- %[1]s(x,y), %[2]s(y,z).", []int{classM, classL}, false, 2},
	{"Q(x,y,z) :- %[1]s(x,y), %[2]s(y,z), %[3]s(z,w).", []int{classM, classM, classM}, false, 2},
	{"Q(x,y,z) :- %[1]s(x,y), %[2]s(y,z), %[3]s(z,w).", []int{classL, classM, classM}, false, 2},
	{"Q(x,y,w) :- %[1]s(x,y), %[2]s(y,z), %[3]s(y,w).", []int{classM, classM, classM}, false, 2},
	{"Q(x,y,w) :- %[1]s(x,y), %[2]s(y,z), %[3]s(y,w).", []int{classM, classL, classM}, false, 2},
	{"Q(x,z) :- %[1]s(x,y), %[2]s(y,z).", []int{classM, classM}, true, 3},
	{"Q(x,z) :- %[1]s(x,y), %[2]s(y,z).", []int{classL, classM}, true, 3},
	{"Q(x,w) :- %[1]s(x,y), %[2]s(y,z), %[3]s(z,w).", []int{classM, classM, classM}, true, 2},
	{"Q(x,w) :- %[1]s(x,y), %[2]s(y,z), %[3]s(z,w).", []int{classL, classM, classM}, true, 3},
	{"Q(x,z,w) :- %[1]s(x,y), %[2]s(y,z), %[3]s(y,w).", []int{classM, classM, classM}, true, 3},
	{"Q(x,z,w) :- %[1]s(x,y), %[2]s(y,z), %[3]s(y,w).", []int{classL, classM, classM}, true, 2},
}

// coldTemplates: 192 statements of each route over the small relations,
// each with about 2^8 answers.
var coldTemplates = []template{
	{"Q(x,y,z) :- %[1]s(x,y), %[2]s(y,z).", []int{classS, classS}, false, coldQueries / 2},
	{"Q(x,z) :- %[1]s(x,y), %[2]s(y,z).", []int{classS, classS}, true, coldQueries / 2},
}

// generate builds the dataset for seed. The same seed always yields the
// same relations (row order included), queries and script.
func generate(seed int64) (*dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	ds := &dataset{seed: seed, db: database.NewDatabase()}
	for i, n := range relSizes {
		seen := make(map[[2]int64]bool, n)
		rows := make([]database.Tuple, 0, n)
		backing := make([]database.Value, 0, 2*n)
		for len(rows) < n {
			k := [2]int64{rng.Int63n(domain), rng.Int63n(domain)}
			if seen[k] {
				continue
			}
			seen[k] = true
			backing = append(backing, database.Value(k[0]), database.Value(k[1]))
			rows = append(rows, backing[len(backing)-2:len(backing):len(backing)])
		}
		r := database.NewRelation(relName(i), 2)
		if err := r.InsertBatch(rows); err != nil {
			return nil, err
		}
		ds.db.AddRelation(r)
		ds.present = append(ds.present, seen)
	}
	var err error
	if ds.warm, err = pickQueries(rng, warmTemplates); err != nil {
		return nil, err
	}
	if ds.cold, err = pickQueries(rng, coldTemplates); err != nil {
		return nil, err
	}
	return ds, nil
}

// pickQueries draws each template's statements over distinct relations
// of the template's classes, every statement text distinct, and
// interleaves the routes (constant-delay, linear-delay, ...) so that a
// round-robin walk alternates them.
func pickQueries(rng *rand.Rand, ts []template) ([]query, error) {
	seen := map[string]bool{}
	var fc, lin []query
	for _, t := range ts {
		for k, tries := 0, 0; k < t.n; tries++ {
			if tries > 10000 {
				return nil, fmt.Errorf("servebench: cannot draw %d distinct statements of %s", t.n, t.text)
			}
			rels := make([]int, len(t.class))
			args := []interface{}{"", "", ""}
			used := map[int]bool{}
			for i, c := range t.class {
				lo, hi := classRels[c][0], classRels[c][1]
				for {
					rels[i] = lo + rng.Intn(hi-lo)
					if !used[rels[i]] {
						break
					}
				}
				used[rels[i]] = true
				args[i] = relName(rels[i])
			}
			text := fmt.Sprintf(t.text, args...)
			if seen[text] {
				continue
			}
			q, err := logic.ParseCQ(text)
			if err != nil {
				return nil, err
			}
			seen[text] = true
			k++
			qq := query{text: text, cq: q, linear: t.linear, rels: rels}
			if t.linear {
				lin = append(lin, qq)
			} else {
				fc = append(fc, qq)
			}
		}
	}
	if len(fc) != len(lin) {
		return nil, fmt.Errorf("servebench: %d constant-delay vs %d linear-delay statements", len(fc), len(lin))
	}
	var out []query
	for i := range fc {
		out = append(out, fc[i], lin[i])
	}
	return out, nil
}

// mutation is one single-tuple insert or delete.
type mutation struct {
	rel    int
	insert bool
	tuple  [2]int64
}

// mutationScript draws n mutations against the relations qs read: deletes of distinct present tuples alternating with inserts of
// distinct fresh ones, so relation sizes stay stationary and no tuple is
// touched twice. The final database is therefore the same whatever order
// concurrent requests apply the script in.
func (ds *dataset) mutationScript(qs []query, n int) []mutation {
	rng := rand.New(rand.NewSource(ds.seed ^ 0x5eed))
	used := map[int]bool{}
	for _, q := range qs {
		for _, r := range q.rels {
			used[r] = true
		}
	}
	var rels []int
	for r := range used {
		rels = append(rels, r)
	}
	sort.Ints(rels)
	// Deletable tuples per relation, in a seeded order.
	victims := map[int][][2]int64{}
	for _, r := range rels {
		var ks [][2]int64
		for k := range ds.present[r] {
			ks = append(ks, k)
		}
		sort.Slice(ks, func(i, j int) bool {
			if ks[i][0] != ks[j][0] {
				return ks[i][0] < ks[j][0]
			}
			return ks[i][1] < ks[j][1]
		})
		rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
		victims[r] = ks
	}
	fresh := map[[3]int64]bool{}
	out := make([]mutation, 0, n)
	for i := 0; len(out) < n; i++ {
		r := rels[rng.Intn(len(rels))]
		if i%2 == 0 {
			k := victims[r][0]
			victims[r] = victims[r][1:]
			out = append(out, mutation{rel: r, tuple: k})
			continue
		}
		for {
			k := [2]int64{rng.Int63n(domain), rng.Int63n(domain)}
			fk := [3]int64{int64(r), k[0], k[1]}
			if ds.present[r][k] || fresh[fk] {
				continue
			}
			fresh[fk] = true
			out = append(out, mutation{rel: r, insert: true, tuple: k})
			break
		}
	}
	return out
}

// apply replays m on db, as the server applies a /v1/mutate request.
func (m mutation) apply(db *database.Database) error {
	r := db.Relation(relName(m.rel))
	t := database.Tuple{database.Value(m.tuple[0]), database.Value(m.tuple[1])}
	if m.insert {
		return r.InsertBatch([]database.Tuple{t})
	}
	if !r.Delete(t) {
		return fmt.Errorf("servebench: script deletes absent tuple %v from %s", m.tuple, relName(m.rel))
	}
	return nil
}
