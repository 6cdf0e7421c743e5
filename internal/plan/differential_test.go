package plan_test

// Differential suite for the Compile → Bind → Execute pipeline: on hundreds
// of seeded random instances the pipeline must agree with the one-shot core
// facade and with internal/oracle's brute-force reference — on the answers
// AND on the counted steps. A failure prints the seed, the query, and the
// database, so any mismatch reproduces with
//
//	go test ./internal/plan -run TestDifferential -seed=N

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/qgen"
)

var seedFlag = flag.Int64("seed", -1, "replay a single differential-suite seed (-1 runs the full sweep)")

// numSeeds matches the sweep size of the engine-level suites in
// internal/cq and internal/counting.
const numSeeds = 250

func diffSeeds() []int64 {
	if *seedFlag >= 0 {
		return []int64{*seedFlag}
	}
	seeds := make([]int64, numSeeds)
	for i := range seeds {
		seeds[i] = int64(i)
	}
	return seeds
}

func failInstance(t *testing.T, seed int64, q fmt.Stringer, db *database.Database, format string, args ...interface{}) {
	t.Helper()
	t.Fatalf("%s\nseed %d — replay with: go test ./internal/plan -run %s -seed=%d\n%s",
		fmt.Sprintf(format, args...), seed, t.Name(), seed, qgen.FormatInstance(q, db))
}

func sortedCopy(ts []database.Tuple) []database.Tuple {
	out := append([]database.Tuple(nil), ts...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Compare(out[j-1]) < 0; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func sameAnswers(a, b []database.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = sortedCopy(a), sortedCopy(b)
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func sameSequence(a, b []database.Tuple) bool {
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

// TestDifferentialPipeline: for every seeded instance, the explicit
// Compile → Bind → Execute chain produces the oracle's answer set for
// decide, count, and enumerate, with the total counted steps bit-identical
// to the one-shot core facade; and a second execution of the same Prepared
// (the warm path) replays the identical answer sequence with the identical
// execution step count while skipping all preprocessing.
func TestDifferentialPipeline(t *testing.T) {
	for _, seed := range diffSeeds() {
		q, db := qgen.Instance(seed)
		want, err := oracle.Eval(db, q)
		if err != nil {
			failInstance(t, seed, q, db, "oracle: %v", err)
		}

		// One-shot facade: compile + bind + enumerate on one counter.
		c1 := &delay.Counter{}
		e1, err := core.Enumerate(db, q, c1)
		if err != nil {
			failInstance(t, seed, q, db, "core.Enumerate: %v", err)
		}
		got1 := delay.Collect(e1)
		oneShotSteps := c1.Steps()

		// Explicit pipeline, cold: same counter placement, so the grand
		// total must be bit-identical to the facade.
		p, err := plan.Compile(q)
		if err != nil {
			failInstance(t, seed, q, db, "Compile: %v", err)
		}
		c2 := &delay.Counter{}
		pr, err := p.BindCounted(db, c2)
		if err != nil {
			failInstance(t, seed, q, db, "Bind: %v", err)
		}
		bindSteps := c2.Steps()
		e2, err := pr.Enumerate(c2)
		if err != nil {
			failInstance(t, seed, q, db, "Enumerate: %v", err)
		}
		got2 := delay.Collect(e2)
		coldSteps := c2.Steps()
		execSteps := coldSteps - bindSteps

		if !sameAnswers(got1, want) {
			failInstance(t, seed, q, db, "core.Enumerate %v != oracle %v", got1, want)
		}
		if !sameAnswers(got2, want) {
			failInstance(t, seed, q, db, "pipeline enumerate %v != oracle %v", got2, want)
		}
		if oneShotSteps != coldSteps {
			failInstance(t, seed, q, db, "total steps: one-shot %d != pipeline %d", oneShotSteps, coldSteps)
		}

		// Warm path: a fresh cursor over the already-bound spine. The
		// answer sequence and the execution steps must replay exactly;
		// no bind/classification steps may reappear.
		c3 := &delay.Counter{}
		e3, err := pr.Enumerate(c3)
		if err != nil {
			failInstance(t, seed, q, db, "warm Enumerate: %v", err)
		}
		got3 := delay.Collect(e3)
		if !sameSequence(got3, got2) {
			failInstance(t, seed, q, db, "warm enumerate sequence %v != cold %v", got3, got2)
		}
		switch p.EnumerateEngine {
		case plan.EngineConstantDelay, plan.EngineLinearDelay, plan.EngineNeqEnum:
			if c3.Steps() != execSteps {
				failInstance(t, seed, q, db, "warm execution steps %d != cold %d", c3.Steps(), execSteps)
			}
		default:
			// Materializing routes replay a memoized answer list; the warm
			// run must not exceed the cold execution cost.
			if c3.Steps() > execSteps {
				failInstance(t, seed, q, db, "warm steps %d > cold execution steps %d", c3.Steps(), execSteps)
			}
		}

		// Decide and count through the same Prepared agree with the oracle
		// and with the one-shot wrappers.
		okPipeline, err := pr.Decide(nil)
		if err != nil {
			failInstance(t, seed, q, db, "Decide: %v", err)
		}
		if okPipeline != (len(want) > 0) {
			failInstance(t, seed, q, db, "Decide %v != oracle %v", okPipeline, len(want) > 0)
		}
		okFacade, err := core.Decide(db, q)
		if err != nil {
			failInstance(t, seed, q, db, "core.Decide: %v", err)
		}
		if okFacade != okPipeline {
			failInstance(t, seed, q, db, "core.Decide %v != pipeline %v", okFacade, okPipeline)
		}
		n, err := pr.Count(nil)
		if err != nil {
			failInstance(t, seed, q, db, "Count: %v", err)
		}
		if !n.IsInt64() || n.Int64() != int64(len(want)) {
			failInstance(t, seed, q, db, "Count %s != oracle %d", n, len(want))
		}
	}
}

// TestDifferentialBindTwice binds every instance twice over one unmutated
// database, compiling afresh each time so no plan cache is involved. The
// first bind builds and caches the base relations' atom projections, the
// second is served from the cache. Both must decide, count and enumerate
// the oracle's answers with bit-identical counted steps, and the second
// bind must build no projection.
func TestDifferentialBindTwice(t *testing.T) {
	var hits uint64
	for _, seed := range diffSeeds() {
		q, db := qgen.Instance(seed)
		want, err := oracle.Eval(db, q)
		if err != nil {
			failInstance(t, seed, q, db, "oracle: %v", err)
		}
		var steps [2][3]int64
		var seqs [2][]database.Tuple
		stats := []database.ProjectionStats{db.ProjectionStats()}
		for pass := range steps {
			p, err := plan.Compile(q)
			if err != nil {
				failInstance(t, seed, q, db, "Compile: %v", err)
			}
			c := &delay.Counter{}
			pr, err := p.BindCounted(db, c)
			if err != nil {
				failInstance(t, seed, q, db, "pass %d Bind: %v", pass, err)
			}
			e, err := pr.Enumerate(c)
			if err != nil {
				failInstance(t, seed, q, db, "pass %d Enumerate: %v", pass, err)
			}
			seqs[pass] = delay.Collect(e)
			if !sameAnswers(seqs[pass], want) {
				failInstance(t, seed, q, db, "pass %d enumerate %v != oracle %v", pass, seqs[pass], want)
			}
			steps[pass][0] = c.Steps()
			c = &delay.Counter{}
			n, err := pr.Count(c)
			if err != nil || !n.IsInt64() || n.Int64() != int64(len(want)) {
				failInstance(t, seed, q, db, "pass %d Count %v (%v) != oracle %d", pass, n, err, len(want))
			}
			steps[pass][1] = c.Steps()
			c = &delay.Counter{}
			ok, err := pr.Decide(c)
			if err != nil || ok != (len(want) > 0) {
				failInstance(t, seed, q, db, "pass %d Decide %v (%v), oracle nonempty %v", pass, ok, err, len(want) > 0)
			}
			steps[pass][2] = c.Steps()
			stats = append(stats, db.ProjectionStats())
		}
		if steps[0] != steps[1] {
			failInstance(t, seed, q, db, "counted steps (enumerate, count, decide) %v on cold projections, %v on cached ones", steps[0], steps[1])
		}
		if !sameSequence(seqs[0], seqs[1]) {
			failInstance(t, seed, q, db, "answer order %v on cold projections, %v on cached ones", seqs[0], seqs[1])
		}
		first, second := stats[1], stats[2]
		if second.Misses != first.Misses || second.Hits-first.Hits != first.Hits-stats[0].Hits+first.Misses-stats[0].Misses {
			failInstance(t, seed, q, db, "second bind built projections: before %+v, after pass 1 %+v, after pass 2 %+v", stats[0], first, second)
		}
		hits += second.Hits - first.Hits
	}
	if hits == 0 {
		t.Fatalf("no second bind hit the projection cache")
	}
}

// TestDifferentialUCQ: unions through the pipeline — DecideUCQ (the
// satellite bugfix), inclusion–exclusion counting, and union enumeration
// all agree with the brute-force UCQ oracle.
func TestDifferentialUCQ(t *testing.T) {
	cfg := qgen.Default()
	for _, seed := range diffSeeds() {
		rng := rand.New(rand.NewSource(seed))
		u := qgen.UCQ(rng, cfg)
		db := qgen.DatabaseForUCQ(rng, cfg, u)
		want, err := oracle.EvalUCQ(db, u)
		if err != nil {
			failInstance(t, seed, u, db, "oracle: %v", err)
		}

		got, err := core.DecideUCQ(db, u)
		if err != nil {
			failInstance(t, seed, u, db, "DecideUCQ: %v", err)
		}
		if got != (len(want) > 0) {
			failInstance(t, seed, u, db, "DecideUCQ %v != oracle %v", got, len(want) > 0)
		}

		p, err := plan.CompileUCQ(u)
		if err != nil {
			failInstance(t, seed, u, db, "CompileUCQ: %v", err)
		}
		pr, err := p.Bind(db)
		if err != nil {
			failInstance(t, seed, u, db, "Bind: %v", err)
		}
		ok, err := pr.Decide(nil)
		if err != nil {
			failInstance(t, seed, u, db, "Decide: %v", err)
		}
		if ok != got {
			failInstance(t, seed, u, db, "pipeline Decide %v != DecideUCQ %v", ok, got)
		}
		n, err := pr.Count(nil)
		if err != nil {
			failInstance(t, seed, u, db, "Count: %v", err)
		}
		if !n.IsInt64() || n.Int64() != int64(len(want)) {
			failInstance(t, seed, u, db, "Count %s != oracle %d", n, len(want))
		}
		e, err := pr.Enumerate(nil)
		if err != nil {
			failInstance(t, seed, u, db, "Enumerate: %v", err)
		}
		enum := delay.Collect(e)
		if !sameAnswers(enum, want) {
			failInstance(t, seed, u, db, "enumerate %v != oracle %v", enum, want)
		}
		// Warm union enumeration replays the identical sequence.
		e2, err := pr.Enumerate(nil)
		if err != nil {
			failInstance(t, seed, u, db, "warm Enumerate: %v", err)
		}
		if enum2 := delay.Collect(e2); !sameSequence(enum2, enum) {
			failInstance(t, seed, u, db, "warm union sequence %v != cold %v", enum2, enum)
		}
	}
}

// TestDifferentialRandomAccessPipeline: the Prepared's random-access handle
// matches the oracle on free-connex instances, and the handle is memoized
// (building twice returns the same structure with the same count).
func TestDifferentialRandomAccessPipeline(t *testing.T) {
	cfg := qgen.Default()
	for _, seed := range diffSeeds() {
		rng := rand.New(rand.NewSource(seed))
		q := qgen.FreeConnexCQ(rng, cfg)
		db := qgen.DatabaseFor(rng, cfg, q)
		want, err := oracle.Eval(db, q)
		if err != nil {
			failInstance(t, seed, q, db, "oracle: %v", err)
		}
		p, err := plan.Compile(q)
		if err != nil {
			failInstance(t, seed, q, db, "Compile: %v", err)
		}
		if p.EnumerateEngine != plan.EngineConstantDelay {
			continue // generator rarely emits a non-free-connex corner; skip
		}
		pr, err := p.Bind(db)
		if err != nil {
			failInstance(t, seed, q, db, "Bind: %v", err)
		}
		ra, err := pr.NewRandomAccess(nil)
		if err != nil {
			failInstance(t, seed, q, db, "NewRandomAccess: %v", err)
		}
		n := ra.Count()
		if !n.IsInt64() || n.Int64() != int64(len(want)) {
			failInstance(t, seed, q, db, "random access Count %s != oracle %d", n, len(want))
		}
		got := make([]database.Tuple, 0, len(want))
		for i := int64(0); i < n.Int64(); i++ {
			tp, err := ra.GetInt(i)
			if err != nil {
				failInstance(t, seed, q, db, "Get(%d): %v", i, err)
			}
			got = append(got, tp.Clone())
		}
		if !sameAnswers(got, want) {
			failInstance(t, seed, q, db, "random access image %v != oracle %v", got, want)
		}
		ra2, err := pr.NewRandomAccess(nil)
		if err != nil {
			failInstance(t, seed, q, db, "second NewRandomAccess: %v", err)
		}
		if ra2 != ra {
			failInstance(t, seed, q, db, "random access handle not memoized")
		}
	}
}
