// Command qload is an open-loop traffic generator for qservd: arrivals are
// scheduled by a Poisson or bursty process at a configured offered rate,
// independent of how fast the server responds — so saturation shows up as
// rising latency and 429 backpressure instead of a politely slowing client.
// The schedule is absolute (each arrival time is the previous one plus a
// drawn gap, never "now" plus a gap), latency is taken from the intended
// send time, and every trial reports the rate it actually sent at against
// the rate its own schedule offered, and how late its sends started. A
// trial is marked invalid when that ratio falls below 0.95 or when more
// than 1% of its sends started over one mean arrival gap (at least 2 ms,
// the timer jitter) late: then the generator, not the server, set its
// pace.
//
// The workload is derived from -seed exactly as qservd -gen derives it, so
// both sides agree on the queries, relations, and mutation tuples with no
// coordination beyond the seed. The request mix interleaves decide, count,
// paginated enumerate (with cursor following and stale-cursor restarts),
// and single-tuple mutations.
//
// Usage:
//
//	qload -addr http://127.0.0.1:8080 -seed 42 -rate 200 -duration 30s
//	qload -rates 50,100,200,400,800 -duration 10s -json e21.json
//	qload -handles -storm 200 -rate 200 -exp E23 -label queued -json e23.json
//
// With -rates it sweeps offered load and reports a throughput-vs-latency
// curve; -json writes a qbench-style report (wall_ns = overall p99 latency)
// that cmd/benchgate can gate in CI. Exit status is nonzero if any response
// was malformed or unexpected.
//
// -handles switches the client to server-side prepared-statement handles:
// each query is resolved once via /v1/prepare and subsequent requests send
// the opaque handle instead of the query text, re-preparing when the server
// answers 410 (handle evicted). -storm R overlays a cold-bind storm on the
// main mix: R req/s of never-before-seen queries under a tight deadline,
// each a guaranteed cold bind. Storm latencies are kept out of the overall
// histogram, so wall_ns remains the p99 of the WARM traffic while the
// storm rages — the E23 metric. Shed storm requests (503 bind_overloaded)
// and expired deadlines (504) are counted as protocol outcomes, not
// errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

var (
	addr       = flag.String("addr", "http://127.0.0.1:8080", "qservd base URL")
	seed       = flag.Int64("seed", 1, "workload seed (must match qservd -gen)")
	nQueries   = flag.Int("queries", 6, "workload query count (must match qservd -gen-queries)")
	duration   = flag.Duration("duration", 10*time.Second, "trial duration per rate")
	rate       = flag.Float64("rate", 200, "offered arrival rate, requests/second")
	rates      = flag.String("rates", "", "comma-separated rate sweep (overrides -rate)")
	arrivals   = flag.String("arrivals", "poisson", "arrival process: poisson | bursty")
	burst      = flag.Int("burst", 16, "burst size for -arrivals bursty")
	mix        = flag.String("mix", "decide=4,enumerate=4,count=1,mutate=1", "request mix weights")
	page       = flag.Int("page", 64, "enumerate page size")
	deadlineMS = flag.Int64("deadline-ms", 0, "per-request deadline_ms to send (0 = server default)")
	jsonOut    = flag.String("json", "", "write a qbench-style JSON report here")

	useHandles  = flag.Bool("handles", false, "use prepared-statement handles: prepare once per query, send the handle, re-prepare on 410")
	stormRate   = flag.Float64("storm", 0, "cold-bind storm rate (req/s): fresh never-cached queries offered alongside the main mix")
	stormDeadMS = flag.Int64("storm-deadline-ms", 25, "deadline_ms on storm requests (tight, so overload sheds instead of queueing)")
	stormAtoms  = flag.Int("storm-atoms", 4, "join-chain length of each storm query (bind cost knob)")
	expID       = flag.String("exp", "E21", "experiment ID prefix for the JSON report")
	expLabel    = flag.String("label", "", "extra report ID tag (e.g. queued vs inline for E23)")
)

// classes in a fixed order for deterministic mix sampling and reporting.
var classes = []string{"decide", "enumerate", "count", "mutate"}

// minSentRatio is the sent/scheduled rate ratio below which a trial is
// marked invalid: the generator fell behind its own schedule.
const minSentRatio = 0.95

type trialResult struct {
	offered  float64
	sent     int64         // main-mix arrivals issued (storm arrivals excluded)
	sentRate float64       // main-mix arrivals issued per second of the sending phase
	ratio    float64       // sentRate over the schedule's own rate (sent / trial duration)
	gap      time.Duration // mean gap between scheduled arrivals
	valid    bool          // the generator kept its schedule (see validTrial)
	ok       int64
	rejected int64 // 429 backpressure
	stale    int64 // 410 stale cursors/handles (expected under mutation and eviction)
	shed     int64 // 503 bind_overloaded: the bind lane shed the request
	expired  int64 // 504 deadline_exceeded
	stormOK  int64 // storm requests that bound and answered in time
	errors   int64 // malformed or unexpected responses
	elapsed  time.Duration
	late     *obs.Histogram // how far each main-mix send started after its intended time
	overall  *obs.Histogram // warm (main-mix) traffic only — never storm latencies
	storm    *obs.Histogram
	byClass  map[string]*obs.Histogram
}

type loader struct {
	client  *http.Client
	base    string
	wl      *serve.Workload
	weights []int
	wsum    int
	mutIdx  atomic.Int64

	handleMu sync.Mutex
	handles  []string // per-query statement handles, lazily prepared

	stormSeq  atomic.Int64
	stormPred string // binary predicate the storm chains over ("" = rename fallback)
}

func main() {
	flag.Parse()
	weights, wsum, err := parseMix(*mix)
	if err != nil {
		fatal(err)
	}
	// Mutations cycle; 1<<14 steps is plenty for any smoke run and keeps
	// workload derivation fast.
	wl := serve.NewWorkload(*seed, *nQueries, 1<<14)
	ld := &loader{
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 256,
			},
		},
		base:    strings.TrimRight(*addr, "/"),
		wl:      wl,
		weights: weights,
		wsum:    wsum,
		handles: make([]string, len(wl.Queries)),
	}
	// Storm queries chain over the workload's dedicated big relation so
	// each cold bind costs real semijoin work while compile stays cheap;
	// if a future workload drops it, fall back to any binary predicate the
	// queries use (fresh fingerprints either way).
	ld.stormPred = serve.StormRel
	if wl.DB.Relation(serve.StormRel) == nil {
		ld.stormPred = ""
		for _, q := range wl.Queries {
			for _, a := range q.Atoms {
				if len(a.Args) == 2 {
					ld.stormPred = a.Pred
					break
				}
			}
			if ld.stormPred != "" {
				break
			}
		}
	}

	if err := ld.waitHealthy(10 * time.Second); err != nil {
		fatal(err)
	}

	var sweep []float64
	if *rates != "" {
		for _, f := range strings.Split(*rates, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || v <= 0 {
				fatal(fmt.Errorf("bad -rates entry %q", f))
			}
			sweep = append(sweep, v)
		}
	} else {
		sweep = []float64{*rate}
	}

	fmt.Printf("qload: seed=%d queries=%d arrivals=%s mix=%s duration=%s handles=%v storm=%.0f/s\n",
		*seed, *nQueries, *arrivals, *mix, *duration, *useHandles, *stormRate)
	fmt.Printf("%10s %10s %7s %10s %10s %10s %10s %10s %8s %8s %8s %8s %8s\n",
		"offered", "sent/s", "ratio", "ok/s", "late99(ms)", "p50(ms)", "p99(ms)", "max(ms)", "429", "410", "503", "504", "errors")

	var results []trialResult
	for _, r := range sweep {
		res := ld.runTrial(r, *duration)
		results = append(results, res)
		fmt.Printf("%10.0f %10.1f %7.3f %10.1f %10.2f %10.2f %10.2f %10.2f %8d %8d %8d %8d %8d\n",
			res.offered, res.sentRate, res.ratio, float64(res.ok)/res.elapsed.Seconds(),
			ms(res.late.QuantileInterpolated(0.99)),
			ms(res.overall.QuantileInterpolated(0.5)), ms(res.overall.QuantileInterpolated(0.99)), ms(res.overall.Max()),
			res.rejected, res.stale, res.shed, res.expired, res.errors)
		if !res.valid {
			fmt.Printf("%10s   INVALID: sent at %.1f%% of the scheduled rate, p99 send lateness %.2f ms against a %.2f ms allowance; the generator, not the server, set the pace\n",
				"", 100*res.ratio, ms(res.late.QuantileInterpolated(0.99)), ms(max(res.gap, timerJitter).Nanoseconds()))
		}
		if *stormRate > 0 {
			fmt.Printf("%10s   storm: ok=%d shed=%d expired=%d p99=%.2fms\n",
				"", res.stormOK, res.shed, res.expired, ms(res.storm.QuantileInterpolated(0.99)))
		}
	}

	if *jsonOut != "" {
		if err := writeReport(*jsonOut, results); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	for _, res := range results {
		if res.errors > 0 {
			fmt.Fprintf(os.Stderr, "qload: %d malformed/unexpected responses\n", res.errors)
			os.Exit(1)
		}
	}
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func parseMix(s string) ([]int, int, error) {
	w := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, 0, fmt.Errorf("bad -mix entry %q", part)
		}
		n, err := strconv.Atoi(kv[1])
		if err != nil || n < 0 {
			return nil, 0, fmt.Errorf("bad -mix weight %q", part)
		}
		w[kv[0]] = n
	}
	var weights []int
	sum := 0
	for _, c := range classes {
		weights = append(weights, w[c])
		sum += w[c]
		delete(w, c)
	}
	if len(w) > 0 || sum == 0 {
		return nil, 0, fmt.Errorf("-mix must weight only %v and not all zero", classes)
	}
	return weights, sum, nil
}

func (ld *loader) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := ld.client.Get(ld.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("server at %s not healthy after %s", ld.base, timeout)
}

// timerJitter is the send lateness tolerated at any rate: a sleeping
// goroutine wakes a little late even when the generator keeps up. Beyond
// both it and one mean arrival gap, arrivals went out bunched.
const timerJitter = 2 * time.Millisecond

// validTrial reports whether a trial's generator kept its own schedule:
// it sent at no less than minSentRatio of the scheduled rate, and 99% of
// its sends started within one mean arrival gap (or the timer jitter, if
// longer) of their intended time. The second test catches a generator
// that fell behind mid-trial and caught up in a burst, which the rate
// over the whole trial cannot see.
func validTrial(ratio float64, lateP99 int64, gap time.Duration) bool {
	return ratio >= minSentRatio && lateP99 <= max(gap, timerJitter).Nanoseconds()
}

// sleepUntil sleeps until t; it returns at once when t has passed, so a
// schedule that fell behind catches up instead of slipping further.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// runTrial offers load at `offered` req/s for `d` and collects latency and
// outcome statistics. Open loop: the arrival schedule never waits for
// responses; each arrival runs in its own goroutine. Arrival times are
// absolute offsets from the trial start, and each request's latency runs
// from its intended send time, so generator lag shows up as latency and as
// a lower sent rate instead of silently thinning the offered load.
func (ld *loader) runTrial(offered float64, d time.Duration) trialResult {
	res := trialResult{
		offered: offered,
		late:    &obs.Histogram{},
		overall: &obs.Histogram{},
		storm:   &obs.Histogram{},
		byClass: map[string]*obs.Histogram{},
	}
	for _, c := range classes {
		res.byClass[c] = &obs.Histogram{}
	}
	rng := rand.New(rand.NewSource(*seed * 1_000_003))
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)

	fire := func(intended time.Time) {
		wg.Add(1)
		res.late.Observe(time.Since(intended).Nanoseconds())
		class := classes[sampleClass(rng, ld.weights, ld.wsum)]
		qi := rng.Intn(len(ld.wl.Queries))
		follow := rng.Intn(2) == 0
		go func() {
			defer wg.Done()
			outcome := ld.request(class, qi, follow)
			lat := time.Since(intended).Nanoseconds()
			switch outcome {
			case outcomeOK:
				atomic.AddInt64(&res.ok, 1)
				res.overall.Observe(lat)
				res.byClass[class].Observe(lat)
			case outcomeRejected:
				atomic.AddInt64(&res.rejected, 1)
			case outcomeStale:
				atomic.AddInt64(&res.stale, 1)
			case outcomeShed:
				atomic.AddInt64(&res.shed, 1)
			case outcomeDeadline:
				atomic.AddInt64(&res.expired, 1)
			default:
				atomic.AddInt64(&res.errors, 1)
			}
		}()
		res.sent++
	}

	// Cold-bind storm: an independent open-loop arrival process of fresh
	// queries. Its outcomes land in the shed/expired/storm counters and its
	// latencies in the storm histogram only — the overall histogram stays a
	// clean measurement of what the storm does to WARM traffic.
	if *stormRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srng := rand.New(rand.NewSource(*seed*7_654_321 + 1))
			for next := start; next.Before(end); next = next.Add(time.Duration(srng.ExpFloat64() / *stormRate * float64(time.Second))) {
				sleepUntil(next)
				wg.Add(1)
				go func(intended time.Time) {
					defer wg.Done()
					oc := ld.stormRequest()
					lat := time.Since(intended).Nanoseconds()
					switch oc {
					case outcomeOK:
						atomic.AddInt64(&res.stormOK, 1)
						res.storm.Observe(lat)
					case outcomeRejected:
						atomic.AddInt64(&res.rejected, 1)
					case outcomeShed:
						atomic.AddInt64(&res.shed, 1)
					case outcomeDeadline:
						atomic.AddInt64(&res.expired, 1)
					default:
						atomic.AddInt64(&res.errors, 1)
					}
				}(next)
			}
		}()
	}

	switch *arrivals {
	case "poisson":
		res.gap = time.Duration(float64(time.Second) / offered)
		for next := start; next.Before(end); next = next.Add(time.Duration(rng.ExpFloat64() / offered * float64(time.Second))) {
			sleepUntil(next)
			fire(next)
		}
	case "bursty":
		res.gap = time.Duration(float64(*burst) / offered * float64(time.Second))
		for next := start; next.Before(end); next = next.Add(res.gap) {
			sleepUntil(next)
			for i := 0; i < *burst; i++ {
				fire(next)
			}
		}
	default:
		fatal(fmt.Errorf("unknown -arrivals %q", *arrivals))
	}
	// Every scheduled arrival is sent, so the count matches the schedule;
	// a generator that fell behind sends its last arrival after end, which
	// stretches the sending phase and lowers the sent rate. Comparing
	// against the schedule's own rate keeps Poisson sampling noise out of
	// the ratio.
	sending := time.Since(start)
	if sending < d {
		sending = d
	}
	res.sentRate = float64(res.sent) / sending.Seconds()
	res.ratio = d.Seconds() / sending.Seconds()
	res.valid = validTrial(res.ratio, res.late.QuantileInterpolated(0.99), res.gap)
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

func sampleClass(rng *rand.Rand, weights []int, sum int) int {
	r := rng.Intn(sum)
	for i, w := range weights {
		if r < w {
			return i
		}
		r -= w
	}
	return len(weights) - 1
}

type outcome int

const (
	outcomeOK outcome = iota
	outcomeRejected
	outcomeStale
	outcomeShed
	outcomeDeadline
	outcomeError
)

// post sends one JSON request and decodes the response body.
func (ld *loader) post(path string, body interface{}, out map[string]*json.RawMessage) (int, outcome) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, outcomeError
	}
	resp, err := ld.client.Post(ld.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, outcomeError
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, outcomeError
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		return resp.StatusCode, outcomeRejected
	case http.StatusGone:
		return resp.StatusCode, outcomeStale
	case http.StatusServiceUnavailable:
		return resp.StatusCode, outcomeShed
	case http.StatusGatewayTimeout:
		return resp.StatusCode, outcomeDeadline
	case http.StatusOK:
		if err := json.Unmarshal(data, &out); err != nil {
			return resp.StatusCode, outcomeError
		}
		return resp.StatusCode, outcomeOK
	default:
		return resp.StatusCode, outcomeError
	}
}

// statementFields returns the request fields that name the statement: the
// query text, or — in handle mode — the opaque handle from /v1/prepare.
// The bool is false when a handle could not be prepared (caller gives up
// on the request with the prepare outcome).
func (ld *loader) statementFields(qi int) (map[string]interface{}, outcome) {
	if !*useHandles {
		return map[string]interface{}{"query": ld.wl.Queries[qi].String()}, outcomeOK
	}
	ld.handleMu.Lock()
	h := ld.handles[qi]
	ld.handleMu.Unlock()
	if h == "" {
		out := map[string]*json.RawMessage{}
		_, oc := ld.post("/v1/prepare", map[string]interface{}{
			"query": ld.wl.Queries[qi].String(),
		}, out)
		if oc != outcomeOK {
			return nil, oc
		}
		if out["handle"] == nil || json.Unmarshal(*out["handle"], &h) != nil || h == "" {
			return nil, outcomeError
		}
		ld.handleMu.Lock()
		ld.handles[qi] = h
		ld.handleMu.Unlock()
	}
	return map[string]interface{}{"handle": h}, outcomeOK
}

// dropHandle forgets a cached handle the server answered 410 for; the next
// statementFields call re-prepares.
func (ld *loader) dropHandle(qi int) {
	ld.handleMu.Lock()
	ld.handles[qi] = ""
	ld.handleMu.Unlock()
}

// request performs one logical operation and validates the response shape.
// For enumerate, `follow` continues pagination one extra page through the
// returned cursor; a 410 on the follow-up (the database moved between the
// pages) restarts the pagination once, which is the documented client
// protocol for stale cursors. In handle mode a 410 also invalidates the
// cached handle (the server may have evicted the statement) and the
// request retries once with a fresh prepare.
func (ld *loader) request(class string, qi int, follow bool) outcome {
	switch class {
	case "decide", "count":
		var oc outcome
		for attempt := 0; attempt < 2; attempt++ {
			req, hoc := ld.statementFields(qi)
			if hoc != outcomeOK {
				return hoc
			}
			req["deadline_ms"] = *deadlineMS
			out := map[string]*json.RawMessage{}
			_, oc = ld.post("/v1/"+class, req, out)
			if oc == outcomeStale && *useHandles {
				ld.dropHandle(qi)
				continue
			}
			if oc == outcomeOK {
				field := "answer"
				if class == "count" {
					field = "count"
				}
				if out[field] == nil || out["generation"] == nil {
					return outcomeError
				}
			}
			break
		}
		return oc
	case "enumerate":
		cursor := ""
		restarted := false
		for pageNo := 0; ; pageNo++ {
			req, hoc := ld.statementFields(qi)
			if hoc != outcomeOK {
				return hoc
			}
			req["limit"] = *page
			req["deadline_ms"] = *deadlineMS
			if cursor != "" {
				req["cursor"] = cursor
			}
			out := map[string]*json.RawMessage{}
			_, oc := ld.post("/v1/enumerate", req, out)
			if oc == outcomeStale && !restarted {
				// Stale cursor or evicted handle: re-prepare if needed and
				// restart from the first page.
				restarted = true
				cursor = ""
				if *useHandles {
					ld.dropHandle(qi)
				}
				continue
			}
			if oc != outcomeOK {
				return oc
			}
			if out["answers"] == nil || out["done"] == nil {
				return outcomeError
			}
			var done bool
			if json.Unmarshal(*out["done"], &done) != nil {
				return outcomeError
			}
			if done || !follow || pageNo >= 1 {
				return outcomeOK
			}
			if out["next_cursor"] == nil || json.Unmarshal(*out["next_cursor"], &cursor) != nil {
				return outcomeError
			}
		}
	case "mutate":
		i := ld.mutIdx.Add(1) % int64(len(ld.wl.Mutations))
		m := ld.wl.Mutations[i]
		op := "delete"
		if m.Insert {
			op = "insert"
		}
		tuple := make([]int64, len(m.Tuple))
		for j, v := range m.Tuple {
			tuple[j] = int64(v)
		}
		out := map[string]*json.RawMessage{}
		_, oc := ld.post("/v1/mutate", map[string]interface{}{
			"pred": m.Pred, "op": op, "tuple": tuple,
		}, out)
		if oc == outcomeOK && (out["applied"] == nil || out["generation"] == nil) {
			return outcomeError
		}
		return oc
	}
	return outcomeError
}

// stormQuery synthesizes a never-before-seen query: a fresh head predicate
// (the fingerprint folds the head name, so each is a guaranteed cache miss
// and a genuinely cold bind) over a join chain of -storm-atoms copies of a
// binary workload relation — enough semijoin work per bind to make a storm
// hurt. The sequence number is monotonic across trials so a sweep never
// accidentally re-warms an earlier storm's statement.
func (ld *loader) stormQuery() string {
	n := ld.stormSeq.Add(1)
	if ld.stormPred == "" {
		text := ld.wl.Queries[int(n)%len(ld.wl.Queries)].String()
		return fmt.Sprintf("Storm%d%s", n, text[strings.Index(text, "("):])
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Storm%d(x0) :- ", n)
	for i := 0; i < *stormAtoms; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s(x%d,x%d)", ld.stormPred, i, i+1)
	}
	b.WriteString(".")
	return b.String()
}

func (ld *loader) stormRequest() outcome {
	out := map[string]*json.RawMessage{}
	_, oc := ld.post("/v1/decide", map[string]interface{}{
		"query":       ld.stormQuery(),
		"deadline_ms": *stormDeadMS,
	}, out)
	if oc == outcomeOK && (out["answer"] == nil || out["generation"] == nil) {
		return outcomeError
	}
	return oc
}

// writeReport emits the qbench JSON shape so cmd/benchgate can compare two
// runs: one experiment per (arrival process, rate), wall_ns = overall p99
// request latency, per-class p99s in the extras. With a storm running the
// overall histogram holds only warm traffic, so wall_ns is the E23 metric:
// warm p99 during the bind storm.
func writeReport(path string, results []trialResult) error {
	type expReport struct {
		ID         string                 `json:"id"`
		Title      string                 `json:"title"`
		WallNS     int64                  `json:"wall_ns"`
		Allocs     uint64                 `json:"allocs"`
		AllocBytes uint64                 `json:"alloc_bytes"`
		Extra      map[string]interface{} `json:"extra,omitempty"`
	}
	var reports []expReport
	for _, res := range results {
		extra := map[string]interface{}{
			"offered_rps":         res.offered,
			"achieved_rps":        float64(res.ok) / res.elapsed.Seconds(),
			"sent_rps":            res.sentRate,
			"sent_over_scheduled": res.ratio,
			"valid":               res.valid,
			"late_p99_ns":         res.late.QuantileInterpolated(0.99),
			"p50_ns":              res.overall.QuantileInterpolated(0.5),
			"max_ns":              res.overall.Max(),
			"rejected_429":        res.rejected,
			"stale_410":           res.stale,
			"shed_503":            res.shed,
			"expired_504":         res.expired,
			"errors":              res.errors,
			"requests_ok":         res.ok,
		}
		if *stormRate > 0 {
			extra["storm_rps"] = *stormRate
			extra["storm_ok"] = res.stormOK
			if res.storm.Count() > 0 {
				extra["storm_p99_ns"] = res.storm.QuantileInterpolated(0.99)
			}
		}
		for _, c := range classes {
			if h := res.byClass[c]; h.Count() > 0 {
				extra[c+"_p99_ns"] = h.QuantileInterpolated(0.99)
			}
		}
		id := fmt.Sprintf("%s/%s/rate=%.0f", *expID, *arrivals, res.offered)
		if *expLabel != "" {
			id += "/" + *expLabel
		}
		reports = append(reports, expReport{
			ID: id,
			Title: fmt.Sprintf("qservd serving: %s arrivals at %.0f req/s for %s",
				*arrivals, res.offered, res.elapsed.Round(time.Second)),
			WallNS: res.overall.QuantileInterpolated(0.99),
			Extra:  extra,
		})
	}
	out := struct {
		GoVersion   string      `json:"go_version"`
		GOMAXPROCS  int         `json:"gomaxprocs"`
		Quick       bool        `json:"quick"`
		Experiments []expReport `json:"experiments"`
	}{runtime.Version(), runtime.GOMAXPROCS(0), false, reports}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qload:", err)
	os.Exit(1)
}
