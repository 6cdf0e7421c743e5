package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/database"
	"repro/internal/plan"
)

// enumNSPerAnswer is cq.enum_ns_per_answer on the cold-scan linear-delay
// route: bind each statement, then time a full enumeration.
func enumNSPerAnswer(t *testing.T, db *database.Database, qs []query) float64 {
	var per []float64
	for _, q := range qs {
		p, err := plan.Compile(q.cq)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := p.Bind(db)
		if err != nil {
			t.Fatal(err)
		}
		e, err := pr.Enumerate(nil)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		start := time.Now()
		for _, ok := e.Next(); ok; _, ok = e.Next() {
			n++
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(per)
}

// largestBound is the widest end-to-end bound BENCHMARK.json allows.
func largestBound(t *testing.T) float64 {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	hi := 0.0
	for _, m := range spec.EndToEnd {
		hi = max(hi, m.Bound)
	}
	return hi
}

// TestBatchKernelToggleIsDetected is the benchmark's positive control:
// switching the batched probe kernels off (the scalar oracle path) moves
// the linear-delay route's per-answer cost by more than any bound the
// benchmark allows, so a regression of that size cannot pass unseen.
func TestBatchKernelToggleIsDetected(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("times real enumerations")
	}
	ds, err := generate(1)
	if err != nil {
		t.Fatal(err)
	}
	var lin []query
	for _, q := range ds.cold {
		if q.linear && len(lin) < 16 {
			lin = append(lin, q)
		}
	}
	prev := database.SetBatchKernels(true)
	defer database.SetBatchKernels(prev)
	var scalar, batched []float64
	for rep := 0; rep < 5; rep++ {
		database.SetBatchKernels(false)
		scalar = append(scalar, enumNSPerAnswer(t, ds.db, lin))
		database.SetBatchKernels(true)
		batched = append(batched, enumNSPerAnswer(t, ds.db, lin))
	}
	s, b := median(scalar), median(batched)
	bound := largestBound(t)
	t.Logf("cq.enum_ns_per_answer (linear route): scalar %.0f ns, batched %.0f ns, batched/scalar %.3f; largest bound %.2f", s, b, b/s, bound)
	if r := b / s; r < 1+bound && r > 1/(1+bound) {
		t.Fatalf("batch-kernel toggle moved cq.enum_ns_per_answer by %.3f×, within the bound %.2f: the benchmark cannot see it", r, bound)
	}
}
