package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/snapshot"
)

// Set-up is repeated bootRuns times per run and its median reported, so
// one slow exec or page-cache miss does not move setup_s.
const bootRuns = 3

// Each phase is cut into blocks by intended send time (open loop) or
// completion time (closed loop); a metric is computed per block and the
// median of the blocks reported, so one slow stretch of a run (a GC cycle
// in the daemon, a burst of host load) moves it less.
const blocks = 3

// scriptLen bounds the mutations one churn run can send (open and closed
// loop together), far above what a 60-second run reaches.
const scriptLen = 6000

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eRun is one end-to-end measurement of a workload against a fresh
// qservd: set-up, an open-loop phase, a closed-loop phase and the checks.
type e2eRun struct {
	w      workload
	ds     *dataset
	ref    *reference
	sess   *session
	setups []float64

	open, closed  []sample
	openSecs      float64
	closedSecs    float64
	cpuSecs       float64
	cpuMarks      []float64 // daemon CPU seconds at each open-loop block boundary
	peakRSS       float64
	rssThirds     []float64
	before, after map[string]interface{}
	notes         []string
}

type env struct {
	qservd string
	work   string
}

// runE2E measures w for the given open- and closed-loop durations.
func runE2E(e env, w workload, ds *dataset, ref *reference, openSecs, closedSecs float64) (*e2eRun, error) {
	r := &e2eRun{w: w, ds: ds, ref: ref, openSecs: openSecs, closedSecs: closedSecs}
	snap := filepath.Join(e.work, fmt.Sprintf("%s-%d.snap", w.name, ds.seed))
	if err := snapshot.WriteFile(snap, ds.db, nil, nil); err != nil {
		return nil, err
	}
	defer os.Remove(snap)
	qs := ds.warm
	if w.cold {
		qs = ds.cold
	}

	// Set-up: exec until /healthz answers and every handle is prepared.
	var d *daemon
	defer func() { d.stop() }()
	for b := 0; b < bootRuns; b++ {
		d.stop()
		if r.sess != nil {
			r.sess.c.close()
		}
		t0 := time.Now()
		var err error
		d, err = startDaemon(e.qservd, snap, filepath.Join(e.work, "qservd.log"))
		if err != nil {
			return nil, err
		}
		c := newClient(d.addr, openLoopWorkers+4)
		if err := d.waitHealthy(c, 60*time.Second); err != nil {
			return nil, err
		}
		r.sess = &session{w: w, c: c, qs: qs, ref: ref}
		if err := r.sess.prepareAll(); err != nil {
			return nil, fmt.Errorf("servebench: set-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
	}
	s := r.sess
	defer s.c.close()
	if w.name == "read-warm" {
		if err := s.harvest(); err != nil {
			return nil, fmt.Errorf("servebench: cursor harvest: %w", err)
		}
	} else {
		s.cursors = make([][]string, len(qs))
	}
	var nextMut atomic.Int64
	var nextQ [3]atomic.Int64
	if w.name == "churn" {
		s.script = ds.mutationScript(qs, scriptLen)
		if err := s.churnWarmup(&nextMut); err != nil {
			return nil, fmt.Errorf("servebench: churn warm-up: %w", err)
		}
	}

	sched, ops, closedSrc := s.planOps(ds.seed, openSecs, &nextMut, &nextQ)

	var err error
	if r.before, err = s.c.stats(); err != nil {
		return nil, err
	}
	// The daemon's CPU time and RSS at each block boundary of the open loop.
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	r.cpuMarks = []float64{cpu0}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Duration(openSecs / blocks * float64(time.Second)))
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
			case <-stop:
				return
			}
			if len(r.cpuMarks) < blocks {
				if v, err := d.cpuSeconds(); err == nil {
					r.cpuMarks = append(r.cpuMarks, v)
				}
			}
			if v, err := d.memMB("VmRSS"); err == nil && len(r.rssThirds) < blocks {
				r.rssThirds = append(r.rssThirds, v)
			}
		}
	}()
	r.open = s.openLoop(ops, sched)
	close(stop)
	<-done
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	r.cpuMarks = append(r.cpuMarks, cpu1)
	r.cpuSecs = cpu1 - cpu0

	r.closed = s.closedLoop(closedSrc, numClients(), time.Duration(closedSecs*float64(time.Second)))
	if r.after, err = s.c.stats(); err != nil {
		return nil, err
	}
	if r.peakRSS, err = d.memMB("VmHWM"); err != nil {
		return nil, err
	}
	if w.name == "churn" {
		if err := r.churnEndCheck(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// numClients is the closed-loop client count: one per CPU, as the load
// process itself runs on at most nproc threads.
func numClients() int { return max(1, runtimeCPUs()) }

// churnEndCheck replays the acknowledged mutations in-process and compares
// every statement's count and decision with the server's.
func (r *e2eRun) churnEndCheck() error {
	s := r.sess
	applied := append([]int(nil), s.applied...)
	sort.Ints(applied)
	for _, i := range applied {
		if err := s.script[i].apply(r.ds.db); err != nil {
			return err
		}
	}
	want, err := recount(r.ds.db, s.qs)
	if err != nil {
		return err
	}
	for i, q := range s.qs {
		got, err := s.c.count(s.handles[i])
		if err != nil {
			return err
		}
		if got != want[i] {
			s.fail(fmt.Errorf("churn end check: count %q = %d, want %d after %d mutations", q.text, got, want[i], len(applied)))
		}
	}
	r.notes = append(r.notes, fmt.Sprintf("  churn end check: %d statements recounted after %d mutations, %d wrong answers in the run",
		len(s.qs), len(applied), s.wrong.Load()))
	return nil
}

func statNum(st map[string]interface{}, key string) float64 {
	v, _ := st[key].(float64)
	return v
}

func statDelta(a, b map[string]interface{}, key string) float64 {
	return statNum(b, key) - statNum(a, key)
}

// blockStats are one open-loop block's figures.
type blockStats struct {
	all      []float64
	firsts   []float64
	answers  float64
	span     float64
	complete int
}

func (r *e2eRun) openBlocks() []blockStats {
	bs := make([]blockStats, blocks)
	for _, sm := range r.open {
		b := &bs[min(blocks-1, int(sm.intended.Seconds()/r.openSecs*blocks))]
		lat := (sm.done - sm.intended).Seconds()
		b.all = append(b.all, lat)
		if sm.ok {
			b.complete++
		}
		if sm.kind == opStream && sm.ok && sm.answers > 0 {
			b.firsts = append(b.firsts, (sm.first - sm.intended).Seconds())
			b.answers += float64(sm.answers)
			b.span += sm.span.Seconds()
		}
	}
	return bs
}

// blockMedian applies f to every block and returns the median and the
// smallest sample count f saw.
func blockMedian(bs []blockStats, f func(b *blockStats) (float64, int)) (float64, int) {
	var vs []float64
	n := -1
	for i := range bs {
		v, k := f(&bs[i])
		vs = append(vs, v)
		if n < 0 || k < n {
			n = k
		}
	}
	return median(vs), n
}

// metrics computes the end-to-end metrics of the run: each the median of
// its per-block values.
func (r *e2eRun) metrics() (map[string]metric, []string) {
	m := map[string]metric{}
	var lines []string
	add := func(name, unit string, v float64, n int, note string) {
		m[name] = metric{Value: v, Unit: unit}
		lines = append(lines, fmt.Sprintf("  %-24s %12.4f %-6s n=%d %s", name, v, unit, n, note))
	}
	setups := append([]float64(nil), r.setups...)
	add("setup_s", "s", median(setups), len(setups), "median of boots")

	bs := r.openBlocks()
	per := fmt.Sprintf("per block; median of %d blocks", blocks)
	v, n := blockMedian(bs, func(b *blockStats) (float64, int) { return ms(median(b.all)), len(b.all) })
	add("latency_p50_ms", "ms", v, n, per)
	qs := 1.0
	v, n = blockMedian(bs, func(b *blockStats) (float64, int) {
		q, x := tailQuantile(b.all)
		qs = min(qs, q)
		return ms(x), len(b.all)
	})
	add("latency_p99_ms", "ms", v, n, fmt.Sprintf("(reported quantile p%g, the highest with 10 samples beyond it, %s)", qs*100, per))
	// Per-kind medians pool the whole phase: on cold-scan a kind is a tenth
	// of the ops, too few per block.
	for _, k := range []opKind{opDecide, opCount, opPage, opMutate} {
		var lat []float64
		for _, sm := range r.open {
			if sm.kind == k {
				lat = append(lat, ms((sm.done - sm.intended).Seconds()))
			}
		}
		if len(lat) > 0 {
			add(k.String()+"_p50_ms", "ms", median(lat), len(lat), "")
		}
	}
	if len(bs[0].firsts) > 0 {
		v, n = blockMedian(bs, func(b *blockStats) (float64, int) { return ms(median(b.firsts)), len(b.firsts) })
		add("first_answer_p50_ms", "ms", v, n, per)
		v, n = blockMedian(bs, func(b *blockStats) (float64, int) { return b.answers / b.span, len(b.firsts) })
		add("stream_answers_per_s", "1/s", v, n, "(streams' answers over their first-to-last-answer time, "+per+")")
	}

	// The same latencies by kind and route, for reading the mixture.
	byKR := map[string][]float64{}
	for _, sm := range r.open {
		route := "const"
		if sm.linear {
			route = "linear"
		}
		if sm.kind == opMutate {
			route = "-"
		}
		k := sm.kind.String() + "/" + route
		byKR[k] = append(byKR[k], ms((sm.done - sm.intended).Seconds()))
	}
	var krs []string
	for k := range byKR {
		krs = append(krs, k)
	}
	sort.Strings(krs)
	for _, k := range krs {
		lines = append(lines, fmt.Sprintf("    %-16s p50 %10.4f ms  n=%d", k, median(byKR[k]), len(byKR[k])))
	}

	// Closed loop: completions per block of its duration.
	okPer := make([]float64, blocks)
	for _, sm := range r.closed {
		if sm.ok {
			okPer[min(blocks-1, int(sm.done.Seconds()/r.closedSecs*blocks))]++
		}
	}
	for i := range okPer {
		okPer[i] /= r.closedSecs / blocks
	}
	add("peak_rps", "1/s", median(okPer), len(r.closed), fmt.Sprintf("(%d closed-loop clients, %s)", numClients(), per))
	attempted, failed, _ := r.counts()
	add("error_rate", "ratio", float64(failed)/float64(attempted), int(attempted), "")
	v, n = blockMedian(bs, func(b *blockStats) (float64, int) {
		i := &bs[0]
		k := 0
		for ; i != b; i = &bs[k] {
			k++
		}
		return ms(r.cpuMarks[min(k+1, len(r.cpuMarks)-1)]-r.cpuMarks[min(k, len(r.cpuMarks)-1)]) / float64(max(b.complete, 1)), b.complete
	})
	add("server_cpu_ms_per_req", "ms", v, n, "(daemon user+system CPU over completed open-loop requests, "+per+")")
	add("server_peak_rss_mb", "MiB", r.peakRSS, 1, "(VmHWM)")
	return m, lines
}

// counts returns the requests sent in the measured phases (plus the churn
// end check's), how many failed (refused, malformed or wrong), and how
// many of those were wrong answers: malformed or unequal to the reference.
// Only wrong answers make a run incorrect; refusals count in the error
// rate.
func (r *e2eRun) counts() (attempted, failed, wrong int64) {
	attempted = int64(len(r.open) + len(r.closed))
	if r.w.name == "churn" {
		attempted += int64(len(r.sess.qs))
	}
	return attempted, r.sess.failed.Load(), r.sess.wrong.Load()
}

// loadgen reports how faithfully the open loop offered its rate: the p99
// of send lateness (actual send minus intended send) and achieved over
// offered. A run whose generator fell behind is invalid.
func (r *e2eRun) loadgen() (lateP99ms, achievedRatio float64, valid bool) {
	var late []float64
	sent := 0
	for _, sm := range r.open {
		late = append(late, (sm.sent - sm.intended).Seconds())
		if sm.sent.Seconds() <= r.openSecs {
			sent++
		}
	}
	_, lp := tailQuantile(late)
	// Offered is the schedule's own count of requests in the window.
	ratio := float64(sent) / float64(max(len(r.open), 1))
	return ms(lp), ratio, ratio >= 0.95
}

// properties prints what each workload is meant to exercise, measured.
func (r *e2eRun) properties() []string {
	var out []string
	hits := statDelta(r.before, r.after, "cache_hits")
	misses := statDelta(r.before, r.after, "cache_misses")
	refreshes := statDelta(r.before, r.after, "cache_refreshes")
	probes := hits + misses + refreshes
	reads, lin, muts := 0, 0, 0
	for _, sm := range append(r.open, r.closed...) {
		if sm.kind == opMutate {
			muts++
			continue
		}
		reads++
		if sm.linear {
			lin++
		}
	}
	// Every bind or refresh is one miss or refresh; the re-probe after it
	// counts as a hit, so the request-level ratio is 1 - (misses+refreshes)/reads.
	out = append(out, fmt.Sprintf("  cache hit ratio %.4f of reads (cache counters: %0.f hits, %0.f misses, %0.f refreshes over %0.f probes)",
		1-(misses+refreshes)/float64(max(reads, 1)), hits, misses, refreshes, probes))
	out = append(out, fmt.Sprintf("  route share: constant-delay %.3f, linear-delay %.3f of %d reads", float64(reads-lin)/float64(max(reads, 1)), float64(lin)/float64(max(reads, 1)), reads))
	if muts > 0 {
		out = append(out, fmt.Sprintf("  mutations %d; reads per mutation %.2f; reads that found their statement stale %.3f", muts, float64(reads)/float64(muts), (misses+refreshes)/float64(max(reads, 1))))
	}
	lo, hi := int64(1<<62), int64(0)
	for _, rq := range r.ref.queries {
		lo, hi = min(lo, rq.count), max(hi, rq.count)
	}
	out = append(out, fmt.Sprintf("  answer counts %d..%d over %d statements", lo, hi, len(r.ref.queries)))
	if r.w.name == "churn" {
		third := time.Duration(r.openSecs / 3 * float64(time.Second))
		var first, last []float64
		for _, sm := range r.open {
			lat := (sm.done - sm.intended).Seconds()
			if sm.intended < third {
				first = append(first, lat)
			} else if sm.intended >= 2*third {
				last = append(last, lat)
			}
		}
		out = append(out, fmt.Sprintf("  drift: latency_p50_ms first third %.4f, last third %.4f; VmRSS MiB by third %v",
			ms(median(first)), ms(median(last)), r.rssThirds))
	}
	return out
}
