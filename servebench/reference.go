package main

import (
	"fmt"

	"repro/internal/database"
	"repro/internal/plan"
)

// Page sizes: the constant-delay route serves pages by random access, so
// its pages are large and its harvested cursors reach deep; the
// linear-delay route re-enumerates and skips to the offset (tens of µs per
// skipped answer at this scale), so its pages stay short and shallow.
const (
	constPageLimit   = 100
	constHarvestStep = 1024
	constHarvestMax  = 8
	linPageLimit     = 10
	linHarvestStep   = 10
	linHarvestMax    = 2
	streamMaxAnswers = 8192 // warm streams: statements with at most this many answers
)

// refQuery is what a correct server answers for one statement.
type refQuery struct {
	text          string
	linear        bool
	count         int64
	decide        bool
	pageLimit     int
	harvestStep   int
	cursorOffsets []int     // page depth d starts at cursorOffsets[d]
	prefix        [][]int64 // the answers every page request can reach, in page order
}

// page is the reference page [off, off+limit).
func (rq *refQuery) page(off, limit int) [][]int64 { return window(rq.prefix, off, limit) }

// reference holds the in-process answers for one query set, computed by
// the library over the same generated database the server loads.
type reference struct {
	queries    []refQuery
	streamable []int
}

// newReference binds every query in-process and records count, decide,
// and every page a request of the workload can ask for.
func newReference(db *database.Database, qs []query, deep bool) (*reference, error) {
	ref := &reference{}
	for i, q := range qs {
		p, err := plan.Compile(q.cq)
		if err != nil {
			return nil, err
		}
		pr, err := p.Bind(db)
		if err != nil {
			return nil, err
		}
		n, err := pr.Count(nil)
		if err != nil {
			return nil, err
		}
		d, err := pr.Decide(nil)
		if err != nil {
			return nil, err
		}
		rq := refQuery{text: q.text, linear: q.linear, count: n.Int64(), decide: d,
			pageLimit: constPageLimit, harvestStep: constHarvestStep}
		maxDepth := constHarvestMax
		if q.linear {
			rq.pageLimit, rq.harvestStep, maxDepth = linPageLimit, linHarvestStep, linHarvestMax
		}
		if !deep {
			maxDepth = 0
		}
		for d := 0; d <= maxDepth && int64(d*rq.harvestStep) < rq.count; d++ {
			rq.cursorOffsets = append(rq.cursorOffsets, d*rq.harvestStep)
		}
		// Every page a request can read: the harvest pages (step-sized)
		// and the op pages (limit-sized) at each cursor offset.
		upto := rq.cursorOffsets[len(rq.cursorOffsets)-1] + max(rq.harvestStep, rq.pageLimit)
		if rq.prefix, err = prefix(pr, int64(upto)); err != nil {
			return nil, fmt.Errorf("servebench: reference for %s: %w", q.text, err)
		}
		ref.queries = append(ref.queries, rq)
		if !q.linear && rq.count <= streamMaxAnswers {
			ref.streamable = append(ref.streamable, i)
		}
	}
	if len(ref.streamable) == 0 {
		return nil, fmt.Errorf("servebench: no statement small enough to stream")
	}
	return ref, nil
}

// prefix returns the first n answers in the order the server pages them:
// random access on the constant-delay route, enumeration otherwise.
func prefix(pr *plan.Prepared, n int64) ([][]int64, error) {
	var out [][]int64
	if pr.Plan().EnumerateEngine == plan.EngineConstantDelay {
		ra, err := pr.NewRandomAccess(nil)
		if err != nil {
			return nil, err
		}
		total := ra.Count().Int64()
		for i := int64(0); i < n && i < total; i++ {
			t, err := ra.GetInt(i)
			if err != nil {
				return nil, err
			}
			out = append(out, ints(t))
		}
		return out, nil
	}
	e, err := pr.Enumerate(nil)
	if err != nil {
		return nil, err
	}
	for int64(len(out)) < n {
		t, ok := e.Next()
		if !ok {
			break
		}
		out = append(out, ints(t))
	}
	return out, nil
}

func ints(t database.Tuple) []int64 {
	out := make([]int64, len(t))
	for i, v := range t {
		out[i] = int64(v)
	}
	return out
}

func window(a [][]int64, off, n int) [][]int64 {
	if off > len(a) {
		off = len(a)
	}
	end := off + n
	if end > len(a) {
		end = len(a)
	}
	return a[off:end]
}

// recount binds every statement over db afresh and returns its count: the
// churn end check, after the acknowledged mutations were replayed on db.
func recount(db *database.Database, qs []query) ([]int64, error) {
	out := make([]int64, len(qs))
	for i, q := range qs {
		p, err := plan.Compile(q.cq)
		if err != nil {
			return nil, err
		}
		pr, err := p.Bind(db)
		if err != nil {
			return nil, err
		}
		n, err := pr.Count(nil)
		if err != nil {
			return nil, err
		}
		out[i] = n.Int64()
	}
	return out, nil
}
