package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/snapshot"
)

// span is one timed call into a layer. Spans of one replayed request
// share req; parent is the span that was open when this one started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for one goroutine. Off, it only times the
// call; the difference between the two is the tracing overhead.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int64
	req   int64
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// do runs f inside a span and returns its duration.
func (t *tracer) do(name string, f func()) time.Duration {
	if !t.on {
		start := time.Now()
		f()
		return time.Since(start)
	}
	id := int64(len(t.spans) + 1)
	var parent int64
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name})
	t.open = append(t.open, id)
	start := time.Now()
	f()
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	sp := &t.spans[id-1]
	sp.Start, sp.End = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	return end.Sub(start)
}

// durations returns the span durations (ns) by name.
func (t *tracer) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start))
	}
	return out
}

// selfTimes sums, per layer (the span name up to its first dot), span
// time minus the time covered by its child spans.
func (t *tracer) selfTimes() (self, total map[string]float64, count map[string]int) {
	self, total, count = map[string]float64{}, map[string]float64{}, map[string]int{}
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += float64(s.End - s.Start)
		}
	}
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		d := float64(s.End - s.Start)
		self[layer] += d - child[s.ID]
		total[layer] += d
		count[layer]++
	}
	return self, total, count
}

// handlerTransport serves client requests in-process through the serve
// layer's Handler, recording each call as a span named by the op.
type handlerTransport struct {
	h    http.Handler
	tr   *tracer
	name string
}

func (ht *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	ht.tr.do(ht.name, func() { ht.h.ServeHTTP(rec, req) })
	return rec.Result(), nil
}

// replay is one in-process pass over a workload's seeded ops: each op is
// sent through serve's Handler (a "serve.<op>" span) and then repeated at
// the plan layer against an identical database and cache of its own (a
// "plan.<op>" span with its cq and database children), so the difference
// is the serving layer's own time.
type replay struct {
	w     workload
	tr    *tracer
	sess  *session
	ht    *handlerTransport
	db    *database.Database
	cache *plan.Cache
	plans []*plan.Plan
	reads int
	hits  int
}

func newReplay(w workload, ds *dataset, ref *reference, qs []query, tr *tracer) (*replay, error) {
	srv := serve.New(ds.db.Clone(), nil, serve.Config{})
	ht := &handlerTransport{h: srv.Handler(), tr: tr, name: "serve.prepare"}
	c := &client{base: "http://in-process", hc: &http.Client{Transport: ht}}
	rp := &replay{w: w, tr: tr, ht: ht, db: ds.db.Clone(), cache: plan.NewCache(),
		sess: &session{w: w, c: c, qs: qs, ref: ref}}
	rp.cache.SetMaxPrepared(256)
	if err := rp.sess.prepareAll(); err != nil {
		return nil, err
	}
	for _, q := range qs {
		p, err := rp.cache.Compile(q.cq)
		if err != nil {
			return nil, err
		}
		if _, err := rp.cache.PreparePlan(p, rp.db, nil); err != nil {
			return nil, err
		}
		rp.plans = append(rp.plans, p)
	}
	ht.name = "serve.page"
	if w.name == "read-warm" {
		if err := rp.sess.harvest(); err != nil {
			return nil, err
		}
	} else {
		rp.sess.cursors = make([][]string, len(qs))
	}
	if w.name == "churn" {
		rp.sess.script = ds.mutationScript(qs, scriptLen)
	}
	if w.cold {
		return rp, nil
	}
	// Warm both sides as the end-to-end run is warm when it starts: every
	// count memoized and every random-access structure built (churn: after
	// a first mutation, which installs the incremental refreshers). The
	// warm-up mutation comes from the end of the script, clear of the ops.
	var warm []op
	if w.name == "churn" {
		warm = append(warm, op{kind: opMutate, mut: scriptLen - 1})
	}
	for q := range qs {
		warm = append(warm, op{kind: opCount, q: q}, op{kind: opPage, q: q})
	}
	if _, err := rp.run(warm, 0); err != nil {
		return nil, err
	}
	rp.reads, rp.hits = 0, 0
	return rp, nil
}

// run replays ops, stopping after budget (if positive) or after all ops.
// It returns the number of ops replayed.
func (rp *replay) run(ops []op, budget time.Duration) (int, error) {
	start := time.Now()
	base := time.Now()
	for i, o := range ops {
		if budget > 0 && time.Since(start) > budget {
			return i, nil
		}
		rp.tr.req = int64(i + 1)
		rp.ht.name = "serve." + o.kind.String()
		var sm sample
		rp.sess.exec(o, base, &sm)
		if !sm.ok {
			return i, fmt.Errorf("in-process replay: %s", strings.Join(rp.sess.errs, "; "))
		}
		if err := rp.planOp(o); err != nil {
			return i, err
		}
	}
	return len(ops), nil
}

// planOp repeats o at the plan layer.
func (rp *replay) planOp(o op) error {
	var err error
	if o.kind == opMutate {
		m := rp.sess.script[o.mut]
		name := "database.delete"
		if m.insert {
			name = "database.insert"
		}
		rp.tr.do(name, func() { err = m.apply(rp.db) })
		return err
	}
	rq := &rp.sess.ref.queries[o.q]
	rp.tr.do("plan."+o.kind.String(), func() {
		var pr *plan.Prepared
		warm := false
		rp.tr.do("plan.probe", func() { pr, warm = rp.cache.PeekPlan(rp.plans[o.q], rp.db) })
		rp.reads++
		if warm {
			rp.hits++
		} else if rp.tr.do("plan.bind", func() { pr, err = rp.cache.PreparePlan(rp.plans[o.q], rp.db, nil) }); err != nil {
			return
		}
		switch o.kind {
		case opDecide:
			_, err = pr.Decide(nil)
		case opCount:
			_, err = pr.Count(nil)
		case opPage:
			off := 0
			if o.depth > 0 {
				off = rq.cursorOffsets[o.depth]
			}
			err = pageAt(rp.tr, pr, off, rq.pageLimit)
		case opStream:
			rp.tr.do("cq.enumerate", func() {
				var e delay.Enumerator
				if e, err = pr.Enumerate(nil); err == nil {
					for _, ok := e.Next(); ok; _, ok = e.Next() {
					}
				}
			})
		}
	})
	return err
}

// pageAt reads answers [off, off+limit) the way the server does: random
// access on the constant-delay route, enumerate-and-skip otherwise.
func pageAt(tr *tracer, pr *plan.Prepared, off, limit int) error {
	var err error
	if pr.Plan().EnumerateEngine == plan.EngineConstantDelay {
		var ra *cq.RandomAccess
		tr.do("plan.random_access", func() { ra, err = pr.NewRandomAccess(nil) })
		if err != nil {
			return err
		}
		n := ra.Count().Int64()
		tr.do("cq.get", func() {
			for i := int64(off); i < int64(off+limit) && i < n && err == nil; i++ {
				_, err = ra.GetInt(i)
			}
		})
		return err
	}
	tr.do("cq.enumerate", func() {
		var e delay.Enumerator
		if e, err = pr.Enumerate(nil); err != nil {
			return
		}
		for i := 0; i < off+limit; i++ {
			if _, ok := e.Next(); !ok {
				break
			}
		}
	})
	return err
}

// delaySink records the counted steps between consecutive answers.
type delaySink struct{ steps []float64 }

func (d *delaySink) ObserveDelay(steps, _ int64)                                 { d.steps = append(d.steps, float64(steps)) }
func (d *delaySink) ObserveSpan(string, int, int64, int64, time.Time, time.Time) {}

// measureTraced is the --trace 1 run: the in-process replay (off, then
// on), the per-layer probes, and a shortened end-to-end run for the
// server's own counters and the load generator's figures.
func measureTraced(e env, w workload, ds *dataset, ref *reference, secs float64) (*outcome, error) {
	qs := ds.warm
	if w.cold {
		qs = ds.cold
	}
	out := &outcome{metrics: map[string]metric{}}
	report := func(format string, a ...interface{}) { out.report = append(out.report, fmt.Sprintf(format, a...)) }
	add := func(name, unit string, v float64, note string) {
		out.metrics[name] = metric{Value: v, Unit: unit}
		report("  %-34s %14.4f %-6s %s", name, v, unit, note)
	}
	report("workload %s seed %d (traced in-process replay): %s", w.name, ds.seed, w.why)

	// The replay's ops: the open-loop ops of the end-to-end run.
	var nextMut atomic.Int64
	var nextQ [3]atomic.Int64
	planner := &session{w: w, qs: qs, ref: ref}
	_, ops, _ := planner.planOps(ds.seed, openShare*secs, &nextMut, &nextQ)

	// Pass 0 (tracing off) fixes how many ops fit the budget and warms the
	// process; pass 1 replays exactly those ops with tracing on and pass 2
	// with it off. Each pass starts from a fresh server and database.
	budget := time.Duration(0.1 * secs * float64(time.Second))
	var n int
	var offSecs []float64
	var onSecs float64
	var tr *tracer
	var rp *replay
	for pass := 0; pass < 3; pass++ {
		t := newTracer(pass == 1)
		r, err := newReplay(w, ds, ref, qs, t)
		if err != nil {
			return nil, err
		}
		t.spans = t.spans[:0] // set-up and warm-up spans are not the replay
		t0 := time.Now()
		if pass == 0 {
			n, err = r.run(ops, budget)
		} else {
			_, err = r.run(ops[:n], 0)
		}
		if err != nil {
			return nil, err
		}
		if pass == 1 {
			tr, rp, onSecs = t, r, time.Since(t0).Seconds()
			continue
		}
		offSecs = append(offSecs, time.Since(t0).Seconds())
	}
	report("  replayed %d ops: %.4f s with tracing off, %.4f s on, %.4f s off", n, offSecs[0], onSecs, offSecs[1])
	replaySpans := len(tr.spans)

	d := tr.durations()
	med := func(name string) float64 { return median(append([]float64(nil), d[name]...)) }
	sum := func(name string) float64 {
		s := 0.0
		for _, v := range d[name] {
			s += v
		}
		return s
	}
	// serve: handler time per op, and its share over the plan replay of
	// the same op (median over reads).
	var shares []float64
	byReq := map[int64][2]float64{}
	for _, sp := range tr.spans {
		k := byReq[sp.Req]
		switch {
		case strings.HasPrefix(sp.Name, "serve.") && sp.Name != "serve.mutate":
			k[0] = float64(sp.End - sp.Start)
		case sp.Parent == 0 && strings.HasPrefix(sp.Name, "plan."):
			k[1] = float64(sp.End - sp.Start)
		}
		byReq[sp.Req] = k
	}
	for _, k := range byReq {
		if k[0] > 0 && k[1] > 0 {
			shares = append(shares, (k[0]-k[1])/k[0])
		}
	}
	for _, k := range []opKind{opDecide, opCount, opPage} {
		add("serve."+k.String()+"_us", "us", med("serve."+k.String())/1e3, fmt.Sprintf("n=%d", len(d["serve."+k.String()])))
	}
	// Streams through the handler: the replayed ones plus one of each of
	// the first four streamable statements.
	streamAnswers := 0.0
	for _, o := range ops[:n] {
		if o.kind == opStream {
			streamAnswers += float64(ref.queries[o.q].count)
		}
	}
	for _, q := range ref.streamable[:min(4, len(ref.streamable))] {
		rp.ht.name = "serve.stream"
		var sm sample
		rp.sess.exec(op{kind: opStream, q: q}, time.Now(), &sm)
		if !sm.ok {
			return nil, fmt.Errorf("in-process stream: %s", strings.Join(rp.sess.errs, "; "))
		}
		streamAnswers += float64(sm.answers)
	}
	d = tr.durations()
	add("serve.stream_ns_per_answer", "ns", sum("serve.stream")/streamAnswers, fmt.Sprintf("%0.f answers", streamAnswers))
	add("serve.self_share", "ratio", median(shares), "(handler time minus plan replay of the same read, over handler time; median)")
	add("plan.cache_hit_ratio", "ratio", float64(rp.hits)/float64(max(rp.reads, 1)), fmt.Sprintf("%d reads", rp.reads))

	// Mutations through the handler: the replayed ones plus a probe of 16.
	mutOps := make([]op, 16)
	script := ds.mutationScript(qs[:min(8, len(qs))], scriptLen)
	base := len(rp.sess.script)
	rp.sess.script = append(rp.sess.script, script[len(script)-16:]...)
	for i := range mutOps {
		mutOps[i] = op{kind: opMutate, mut: base + i}
	}
	for i, o := range mutOps {
		rp.ht.name = "serve.mutate"
		var sm sample
		rp.sess.exec(o, time.Now(), &sm)
		if !sm.ok {
			return nil, fmt.Errorf("in-process mutate %d: %s", i, strings.Join(rp.sess.errs, "; "))
		}
	}
	d = tr.durations()
	add("serve.mutate_us", "us", med("serve.mutate")/1e3, fmt.Sprintf("n=%d", len(d["serve.mutate"])))

	if err := probeLayers(tr, e, ds, qs, add); err != nil {
		return nil, err
	}

	// Shortened end-to-end run: the server's counters and the generator.
	r, err := runE2E(e, w, ds, ref, 0.3*secs, 0.1*secs)
	if err != nil {
		return nil, err
	}
	ms := func(key string) float64 { return statNum(r.after, key) / 1e6 }
	add("serve.server_p50_ms", "ms", ms("latency_p50_ns"), "(qservd's own histogram, since start)")
	add("serve.server_p99_ms", "ms", ms("latency_p99_ns"), "")
	add("serve.bind_wait_p99_ms", "ms", ms("bind_wait_p99_ns"), "")
	for _, k := range []string{"shed_503", "rejected_429", "cache_refreshes", "binds_coalesced"} {
		add("serve."+k, "count", statDelta(r.before, r.after, k), "(/v1/stats diff over the run)")
	}
	late, ratio, valid := r.loadgen()
	add("loadgen.late_p99_ms", "ms", late, "")
	add("loadgen.achieved_over_offered", "ratio", ratio, fmt.Sprintf("valid=%v", valid))
	var wrong int64
	out.attempted, out.failed, wrong = r.counts()
	for _, msg := range r.sess.errs {
		report("  error: %s", msg)
	}

	self, total, count := tr.selfTimes()
	var layers []string
	for l := range total {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	report("  per-layer time over %d spans (ms): layer, spans, total, self", len(tr.spans))
	for _, l := range layers {
		report("    %-10s %6d %12.3f %12.3f", l, count[l], total[l]/1e6, self[l]/1e6)
	}
	for _, l := range []string{"snapshot", "database", "plan", "cq", "serve"} {
		add("self."+l+"_ms", "ms", self[l]/1e6, "")
	}
	add("trace.overhead_ratio", "ratio", onSecs/offSecs[1]-1, fmt.Sprintf("(replay time on %.4f s vs off %.4f s, %d spans)", onSecs, offSecs[1], replaySpans))
	path := filepath.Join(e.work, fmt.Sprintf("spans-%s-seed%d.json", w.name, ds.seed))
	if b, err := json.Marshal(tr.spans); err == nil {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return nil, err
		}
		report("  span file %s", path)
	}
	out.correct = wrong == 0 && valid
	return out, nil
}

// probeLayers times each layer's public calls directly over the
// workload's statements and relations.
func probeLayers(tr *tracer, e env, ds *dataset, qs []query, add func(name, unit string, v float64, note string)) error {
	rng := rand.New(rand.NewSource(ds.seed + 17))
	tr.req = 0

	// snapshot/core: open the snapshot as qservd does.
	snap := filepath.Join(e.work, fmt.Sprintf("probe-%d.snap", ds.seed))
	if err := snapshot.WriteFile(snap, ds.db, nil, nil); err != nil {
		return err
	}
	defer os.Remove(snap)
	var opens, allocs, heaps []float64
	for i := 0; i < 5; i++ {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		var err error
		var db *database.Database
		var closer interface{ Close() error }
		dt := tr.do("snapshot.open", func() { db, _, closer, err = core.LoadPath(snap) })
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		opens = append(opens, dt.Seconds()*1e3)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		heaps = append(heaps, float64(m1.HeapAlloc-m0.HeapAlloc)/(1<<20))
		runtime.KeepAlive(db)
		closer.Close()
	}
	add("snapshot.open_ms", "ms", median(opens), "(core.LoadPath, median of 5)")
	add("snapshot.open_allocs", "count", median(allocs), "")
	add("snapshot.heap_mb", "MiB", median(heaps), "")

	// database: kernels over the first two atoms of statements, A(x,y) ⋈ B(y,z).
	var builds, semis, joins, looks, batches []float64
	probes := 0
	for i := 0; i < min(8, len(qs)); i++ {
		a := ds.db.Relation(relName(qs[i].rels[0]))
		b := ds.db.Relation(relName(qs[i].rels[1])).Clone()
		var ix *database.Index
		builds = append(builds, tr.do("database.index_build", func() { ix = b.IndexOn([]int{0}) }).Seconds()*1e3)
		semis = append(semis, float64(tr.do("database.semijoin", func() { database.Semijoin(a, []int{1}, b, []int{0}) }).Nanoseconds())/float64(a.Len()))
		joins = append(joins, float64(tr.do("database.join", func() { database.Join("j", a, []int{1}, b, []int{0}) }).Nanoseconds())/float64(a.Len()))
		keys := make([]database.Tuple, 4096)
		for k := range keys {
			keys[k] = database.Tuple{database.Value(rng.Intn(domain))}
		}
		looks = append(looks, float64(tr.do("database.lookup", func() {
			for _, k := range keys {
				ix.Lookup(k, []int{0})
			}
		}).Nanoseconds())/float64(len(keys)))
		sl := a.Slab()
		sc := database.GetScratch()
		ids := sc.Iota(a.Len())
		batches = append(batches, float64(tr.do("database.lookup_batch", func() {
			ix.LookupBatch(sl, []int{1}, ids, sc, func(int, []int32) { probes++ })
		}).Nanoseconds())/float64(a.Len()))
		sc.Release()
	}
	add("database.index_build_ms", "ms", median(builds), "(IndexOn, median over relations)")
	add("database.semijoin_ns_per_row", "ns", median(semis), "")
	add("database.join_ns_per_row", "ns", median(joins), "(per probe row)")
	add("database.lookup_ns", "ns", median(looks), "(Index.Lookup)")
	add("database.lookup_batch_ns", "ns", median(batches), "(Index.LookupBatch, per probe row)")

	scratch := ds.db.Relation(relName(qs[0].rels[0])).Clone()
	var ins, dels []float64
	for i := 0; i < 256; i++ {
		t := database.Tuple{database.Value(domain + i), database.Value(rng.Intn(domain))}
		var err error
		ins = append(ins, tr.do("database.insert", func() { err = scratch.InsertBatch([]database.Tuple{t}) }).Seconds()*1e6)
		if err != nil {
			return err
		}
	}
	for i := 0; i < 256; i++ {
		t := scratch.Tuples[scratch.Len()-1].Clone()
		dels = append(dels, tr.do("database.delete", func() { scratch.Delete(t) }).Seconds()*1e6)
	}
	add("database.insert_us", "us", median(ins), "(InsertBatch of one tuple)")
	add("database.delete_us", "us", median(dels), "(Delete of one tuple)")
	{
		src := ds.db.Relation(relName(qs[0].rels[0]))
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		r := src.Clone()
		r.Slab()
		r.IndexOn([]int{0})
		runtime.GC()
		runtime.ReadMemStats(&m1)
		add("database.bytes_per_row", "B", float64(m1.HeapAlloc-m0.HeapAlloc)/float64(r.Len()), "(tuples, slab and one index)")
		runtime.KeepAlive(r)
	}

	// plan: compile and bind every statement (cold-scan: the first 64).
	nb := min(len(qs), 64)
	var compiles, binds []float64
	var bindSteps int64
	plans := make([]*plan.Plan, nb)
	prs := make([]*plan.Prepared, nb)
	for i := 0; i < nb; i++ {
		var err error
		compiles = append(compiles, tr.do("plan.compile", func() { plans[i], err = plan.Compile(qs[i].cq) }).Seconds()*1e6)
		if err != nil {
			return err
		}
		c := &delay.Counter{}
		binds = append(binds, tr.do("plan.bind", func() { prs[i], err = plans[i].BindCounted(ds.db, c) }).Seconds()*1e3)
		if err != nil {
			return err
		}
		bindSteps += c.Steps()
	}
	add("plan.compile_us", "us", median(compiles), "")
	add("plan.bind_ms_p50", "ms", median(binds), fmt.Sprintf("n=%d", nb))
	add("plan.bind_ms_p99", "ms", quantile(binds, 0.99), "")
	add("plan.bind_steps", "count", float64(bindSteps), "(counted RAM steps, exact)")
	cache := plan.NewCache()
	for i := 0; i < nb; i++ {
		if _, err := cache.PreparePlan(plans[i], ds.db, nil); err != nil {
			return err
		}
	}
	const nProbe = 20000
	probeNS := float64(tr.do("plan.probe", func() {
		for k := 0; k < nProbe; k++ {
			cache.PeekPlan(plans[k%nb], ds.db)
		}
	}).Nanoseconds()) / nProbe
	add("plan.probe_ns", "ns", probeNS, "(Cache.PeekPlan, warm)")
	var decides []float64
	for i := 0; i < nb; i++ {
		for k := 0; k < 16; k++ {
			decides = append(decides, tr.do("plan.decide", func() { prs[i].Decide(nil) }).Seconds()*1e6)
		}
	}
	add("plan.decide_us", "us", median(decides), "(Prepared.Decide, warm)")

	// cq: random access and enumeration per route, in ns and counted steps.
	var gets, enumC, enumL []float64
	var stepsC, stepsL []float64
	for i := 0; i < nb && i < 16; i++ {
		pr := prs[i]
		sink := &delaySink{}
		c := &delay.Counter{}
		c.SetSink(sink)
		limit := 1 << 30
		if qs[i].linear {
			limit = 256
		}
		e, err := pr.Enumerate(c)
		if err != nil {
			return err
		}
		answers := 0
		dt := tr.do("cq.enumerate", func() {
			c.MarkStart()
			for answers < limit {
				_, ok := e.Next()
				c.MarkOutput()
				if !ok {
					break
				}
				answers++
			}
		})
		perAns := float64(dt.Nanoseconds()) / float64(max(answers, 1))
		if qs[i].linear {
			enumL = append(enumL, perAns)
			stepsL = append(stepsL, sink.steps...)
			continue
		}
		enumC = append(enumC, perAns)
		stepsC = append(stepsC, sink.steps...)
		ra, err := pr.NewRandomAccess(nil)
		if err != nil {
			return err
		}
		total := ra.Count().Int64()
		idx := make([]int64, 4096)
		for k := range idx {
			idx[k] = rng.Int63n(total)
		}
		gets = append(gets, float64(tr.do("cq.get", func() {
			for _, k := range idx {
				ra.GetInt(k)
			}
		}).Nanoseconds())/float64(len(idx)))
	}
	add("cq.get_ns", "ns", median(gets), "(RandomAccess.GetInt)")
	add("cq.enum_ns_per_answer_const", "ns", median(enumC), "(constant-delay route)")
	add("cq.enum_ns_per_answer_linear", "ns", median(enumL), "(linear-delay route, first 256 answers)")
	add("cq.delay_p99_steps_const", "count", quantile(stepsC, 0.99), "(counted steps between answers, exact)")
	add("cq.delay_max_steps_const", "count", quantile(stepsC, 1), "")
	add("cq.delay_p99_steps_linear", "count", quantile(stepsL, 0.99), "")
	add("cq.delay_max_steps_linear", "count", quantile(stepsL, 1), "")

	// plan: refresh after single-tuple mutations, then count and random
	// access on the refreshed statements (8 statements, 8 mutations).
	db := ds.db.Clone()
	np := min(8, len(qs))
	pcache := plan.NewCache()
	pstmts := make([]*plan.Prepared, np)
	for i := 0; i < np; i++ {
		var err error
		if pstmts[i], err = pcache.Prepare(qs[i].cq, db); err != nil {
			return err
		}
	}
	var refreshes, counts, raBuilds []float64
	deltas, kinds := 0, 0
	for _, m := range ds.mutationScript(qs[:np], 8) {
		if err := m.apply(db); err != nil {
			return err
		}
		for i, pr := range pstmts {
			var kind plan.RefreshKind
			var err error
			refreshes = append(refreshes, tr.do("plan.refresh", func() { kind, err = pr.Refresh(nil) }).Seconds()*1e6)
			if err != nil {
				return err
			}
			kinds++
			if kind == plan.RefreshDelta {
				deltas++
			}
			counts = append(counts, tr.do("plan.count", func() { _, err = pr.Count(nil) }).Seconds()*1e6)
			if err != nil {
				return err
			}
			if !qs[i].linear {
				raBuilds = append(raBuilds, tr.do("plan.random_access", func() { _, err = pr.NewRandomAccess(nil) }).Seconds()*1e6)
				if err != nil {
					return err
				}
			}
		}
	}
	add("plan.refresh_us_p50", "us", median(append([]float64(nil), refreshes...)), fmt.Sprintf("n=%d", len(refreshes)))
	add("plan.refresh_us_p99", "us", quantile(refreshes, 0.99), "")
	add("plan.refresh_delta_ratio", "ratio", float64(deltas)/float64(max(kinds, 1)), "(delta refreshes over all refreshes)")
	add("plan.count_after_mutation_us", "us", median(counts), "")
	add("plan.random_access_build_us", "us", median(raBuilds), "(constant-delay statements)")
	return nil
}
