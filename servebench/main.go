// Command servebench is the repository's end-to-end benchmark: it
// generates a seeded database and query set, serves it from a freshly
// built qservd, drives one workload open-loop and then closed-loop over
// HTTP, checks every answer against an in-process reference, and prints
// the end-to-end metrics. With -trace 1 it instead replays the same
// seeded operations in-process, timing each layer's public calls, and
// prints per-layer metrics with self times.
//
// Run it through run.sh, which builds both binaries first:
//
//	bash servebench/run.sh --workload read-warm --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The benchmark reads
// /proc for the daemon's CPU time and memory, so it runs on Linux only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func runtimeCPUs() int { return runtime.GOMAXPROCS(0) }

func main() { os.Exit(run()) }

func run() int {
	wname := flag.String("workload", "", "workload: read-warm, churn or cold-scan")
	seed := flag.Int64("seed", 1, "seed of the database, queries, schedule and mutations")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced in-process replay, per-layer metrics")
	qservd := flag.String("qservd", "", "qservd binary to measure")
	root := flag.String("root", ".", "repository root (for the environment stamp)")
	work := flag.String("work", ".bench_build/servebench-run", "directory for snapshots, logs, spans and results")
	compare := flag.String("compare", "", "old.json,new.json: compare two result files (refused across hosts)")
	flag.Parse()

	if *compare != "" {
		return compareResults(*compare)
	}
	w, err := workloadByName(*wname)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *qservd == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "servebench: -qservd and a positive -seconds are required")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	st := newStamp(*root, *qservd)
	out, err := measure(env{qservd: *qservd, work: *work}, w, *seed, float64(*seconds), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	sb, _ := json.Marshal(st)
	fmt.Printf("stamp %s\n", sb)
	for _, l := range out.report {
		fmt.Println(l)
	}
	path := filepath.Join(*work, fmt.Sprintf("result-%s-seed%d-trace%d.json", w.name, *seed, *trace))
	full := map[string]interface{}{
		"stamp": st, "workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"correct": out.correct, "attempted": out.attempted, "failed": out.failed,
		"metrics": out.metrics, "report": out.report,
	}
	if b, err := json.MarshalIndent(full, "", "  "); err == nil {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "servebench: write result:", err)
		} else {
			fmt.Println("result file", path)
		}
	}
	line, _ := json.Marshal(map[string]interface{}{
		"correct": out.correct, "attempted": out.attempted, "failed": out.failed, "metrics": out.metrics,
	})
	fmt.Println(string(line))
	return 0
}

type outcome struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]metric
	report            []string
}

// e2eNames are the end-to-end metrics of the result line (the
// BENCHMARK.json end_to_end list): the ones present and never zero on
// every workload in that list, and steady enough from run to run on a
// shared 2-core host to gate a change. The report also prints
// latency_p99_ms and peak_rps (their run-to-run spread there exceeds any
// bound a gate may use), first_answer_p50_ms and stream_answers_per_s on
// workloads with streams, mutate_p50_ms on churn, and error_rate; the
// result line carries the error rate as failed/attempted.
var e2eNames = []string{
	"setup_s", "latency_p50_ms", "decide_p50_ms", "count_p50_ms", "page_p50_ms",
	"server_cpu_ms_per_req", "server_peak_rss_mb",
}

// openShare is the part of a run spent in the open loop; the closed loop
// that measures peak_rps takes the rest.
const openShare = 0.65

func measure(e env, w workload, seed int64, secs float64, traced bool) (*outcome, error) {
	ds, err := generate(seed)
	if err != nil {
		return nil, err
	}
	qs := ds.warm
	if w.cold {
		qs = ds.cold
	}
	ref, err := newReference(ds.db, qs, w.name == "read-warm")
	if err != nil {
		return nil, err
	}
	for _, rq := range ref.queries {
		if !w.cold && (rq.count < minAnswers || rq.count > maxAnswers) {
			return nil, fmt.Errorf("%s has %d answers, outside [%d, %d]", rq.text, rq.count, minAnswers, maxAnswers)
		}
	}
	if traced {
		return measureTraced(e, w, ds, ref, secs)
	}
	r, err := runE2E(e, w, ds, ref, openShare*secs, (1-openShare)*secs)
	if err != nil {
		return nil, err
	}
	all, lines := r.metrics()
	out := &outcome{metrics: map[string]metric{}}
	out.report = append(out.report, fmt.Sprintf("workload %s seed %d: %s", w.name, seed, w.why))
	out.report = append(out.report, fmt.Sprintf("  open loop %.1fs at %.0f req/s offered (evenly spaced, absolute schedule), closed loop %.1fs with %d clients",
		r.openSecs, w.rate, r.closedSecs, numClients()))
	out.report = append(out.report, lines...)
	out.report = append(out.report, r.properties()...)
	late, ratio, valid := r.loadgen()
	out.report = append(out.report, fmt.Sprintf("  loadgen: send lateness p99 %.3f ms, achieved/offered %.4f, valid=%v", late, ratio, valid))
	out.report = append(out.report, r.notes...)
	var wrong int64
	out.attempted, out.failed, wrong = r.counts()
	for _, msg := range r.sess.errs {
		out.report = append(out.report, "  error: "+msg)
	}
	missing := []string{}
	for _, n := range e2eNames {
		mv, ok := all[n]
		if !ok || mv.Value <= 0 {
			missing = append(missing, n)
			continue
		}
		out.metrics[n] = mv
	}
	if len(missing) > 0 {
		out.report = append(out.report, "  missing or zero metrics: "+strings.Join(missing, ", "))
	}
	out.correct = wrong == 0 && valid && len(missing) == 0
	if !valid {
		out.report = append(out.report, "  INVALID: the generator fell behind its schedule; the offered rate was not offered")
	}
	return out, nil
}
