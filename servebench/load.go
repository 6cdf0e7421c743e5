package main

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"time"
)

// openLoopWorkers bounds the requests the load process has in flight. It
// stays below qservd's default admission bound (64), so a slow server
// shows up as client-side queueing measured from the intended send time,
// never as 429s the benchmark provoked itself.
const openLoopWorkers = 48

// session drives one workload against one running daemon.
type session struct {
	w       workload
	c       *client
	qs      []query
	ref     *reference
	handles []string
	cursors [][]string // per statement: the cursor that starts each page depth
	script  []mutation

	mu      sync.Mutex
	applied []int // acknowledged mutations, by script index
	errs    []string

	failed atomic.Int64 // every failed request
	wrong  atomic.Int64 // of those, replies that were malformed or differ from the reference
}

// fail records a failed request; anything but a refusal is a wrong answer.
func (s *session) fail(err error) {
	s.failed.Add(1)
	var refused *refusedError
	if !errors.As(err, &refused) {
		s.wrong.Add(1)
	}
	s.mu.Lock()
	if len(s.errs) < 8 {
		s.errs = append(s.errs, err.Error())
	}
	s.mu.Unlock()
}

// prepareAll prepares a handle for every statement: the end of set-up.
func (s *session) prepareAll() error {
	s.handles = make([]string, len(s.qs))
	for i, q := range s.qs {
		h, err := s.c.prepare(q.text)
		if err != nil {
			return err
		}
		s.handles[i] = h
	}
	return nil
}

// harvest walks each statement's pages from the start and keeps the cursor
// reaching each page depth, checking every page against the reference.
// Cursors are generation-stamped, so only read-warm (no mutations) uses
// them.
func (s *session) harvest() error {
	s.cursors = make([][]string, len(s.qs))
	for i, rq := range s.ref.queries {
		cur := []string{""}
		for d := 1; d < len(rq.cursorOffsets); d++ {
			off := rq.cursorOffsets[d-1]
			p, err := s.c.page(s.handles[i], cur[d-1], rq.harvestStep)
			if err != nil {
				return err
			}
			if err := checkPage(&rq, p, off, rq.harvestStep); err != nil {
				return err
			}
			cur = append(cur, p.NextCursor)
		}
		s.cursors[i] = cur
	}
	return nil
}

func checkPage(rq *refQuery, p *pageReply, off, limit int) error {
	want := rq.page(off, limit)
	if len(p.Answers) == 0 && len(want) == 0 {
		return nil
	}
	if !reflect.DeepEqual(p.Answers, want) {
		return fmt.Errorf("page %q at %d: %d answers differ from the reference's %d", rq.text, off, len(p.Answers), len(want))
	}
	if done := int64(off+len(p.Answers)) >= rq.count; *p.Done != done {
		return fmt.Errorf("page %q at %d: done=%v, want %v", rq.text, off, *p.Done, done)
	}
	return nil
}

// churnWarmup sends one mutation, then reads every statement twice (count
// and first page): the first refresh after a write rebuilds each spine
// and installs its incremental refresher, a one-time cost qservd pays
// once per statement, not per request. The open loop then measures the
// steady state.
func (s *session) churnWarmup(nextMut *atomic.Int64) error {
	for round := 0; round < 2; round++ {
		i := int(nextMut.Add(1) - 1)
		if err := s.c.mutate(s.script[i]); err != nil {
			return err
		}
		s.applied = append(s.applied, i)
		for q := range s.qs {
			if _, err := s.c.count(s.handles[q]); err != nil {
				return err
			}
			if _, err := s.c.page(s.handles[q], "", s.ref.queries[q].pageLimit); err != nil {
				return err
			}
		}
	}
	return nil
}

// sample is one request's timing, relative to the phase start.
type sample struct {
	kind     opKind
	linear   bool
	ok       bool
	intended time.Duration // when the schedule said to send it
	sent     time.Duration
	done     time.Duration
	first    time.Duration // streams: first answer
	answers  int64
	span     time.Duration // streams: first to last answer
}

// exec sends one op and checks the reply. Where the workload has no
// concurrent writes, the reply must equal the reference; under churn it
// must be well-formed (the end check compares counts).
func (s *session) exec(o op, base time.Time, sm *sample) {
	sm.kind = o.kind
	checked := s.w.name != "churn"
	var err error
	var rq *refQuery
	if o.kind != opMutate {
		rq = &s.ref.queries[o.q]
		sm.linear = rq.linear
	}
	switch o.kind {
	case opDecide:
		var v bool
		if v, err = s.c.decide(s.handles[o.q]); err == nil && checked && v != rq.decide {
			err = fmt.Errorf("decide %q = %v, want %v", rq.text, v, rq.decide)
		}
	case opCount:
		var n int64
		if n, err = s.c.count(s.handles[o.q]); err == nil && checked && n != rq.count {
			err = fmt.Errorf("count %q = %d, want %d", rq.text, n, rq.count)
		}
	case opPage:
		cur, off := "", 0
		if o.depth > 0 {
			cur, off = s.cursors[o.q][o.depth], rq.cursorOffsets[o.depth]
		}
		var p *pageReply
		if p, err = s.c.page(s.handles[o.q], cur, rq.pageLimit); err == nil {
			if checked {
				err = checkPage(rq, p, off, rq.pageLimit)
			} else {
				err = checkArity(p.Answers, len(s.qs[o.q].cq.Head))
			}
			sm.answers = int64(len(p.Answers))
		}
	case opStream:
		var r streamResult
		if r, err = s.c.stream(s.handles[o.q], len(s.qs[o.q].cq.Head)); err == nil {
			sm.answers = r.answers
			sm.first = r.first.Sub(base)
			sm.span = r.last.Sub(r.first)
			if checked && r.final != rq.count {
				err = fmt.Errorf("stream %q ended with count %d, want %d", rq.text, r.final, rq.count)
			}
		}
	case opMutate:
		if err = s.c.mutate(s.script[o.mut]); err == nil {
			s.mu.Lock()
			s.applied = append(s.applied, o.mut)
			s.mu.Unlock()
		}
	}
	sm.done = time.Since(base)
	sm.ok = err == nil
	if err != nil {
		s.fail(err)
	}
}

func checkArity(rows [][]int64, arity int) error {
	for _, r := range rows {
		if len(r) != arity {
			return fmt.Errorf("page row %v has arity %d, want %d", r, len(r), arity)
		}
	}
	return nil
}

// openLoop sends ops[i] at offset sched[i] from the phase start, whatever
// the state of earlier requests, and times each from its intended send.
func (s *session) openLoop(ops []op, sched []float64) []sample {
	samples := make([]sample, len(ops))
	base := time.Now().Add(20 * time.Millisecond)
	jobs := make(chan int, len(ops)) // sized to the schedule: the generator never blocks
	var wg sync.WaitGroup
	for w := 0; w < openLoopWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sm := &samples[i]
				sm.intended = time.Duration(sched[i] * float64(time.Second))
				sm.sent = time.Since(base)
				s.exec(ops[i], base, sm)
			}
		}()
	}
	for i := range ops {
		if d := time.Until(base.Add(time.Duration(sched[i] * float64(time.Second)))); d > 0 {
			time.Sleep(d)
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return samples
}

// closedLoop runs clients that each send their next op as soon as the
// previous one completes, for d.
func (s *session) closedLoop(src *opSource, clients int, d time.Duration) []sample {
	var mu sync.Mutex
	var all []sample
	base := time.Now()
	end := base.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(end) {
				mu.Lock()
				o := src.next()
				mu.Unlock()
				sm := sample{sent: time.Since(base)}
				sm.intended = sm.sent
				s.exec(o, base, &sm)
				mine = append(mine, sm)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// planOps fixes the open-loop schedule and its ops from the seed, before
// the first request is sent, and seeds the closed-loop op source. The
// traced run replays the same ops. Cold-scan starts each route's walk at
// its first statement: set-up prepared the statements in order, so the
// cache holds the last 256 and the walk evicts each before it comes round.
func (s *session) planOps(seed int64, openSecs float64, nextMut *atomic.Int64, nextQ *[3]atomic.Int64) ([]float64, []op, *opSource) {
	rng := rand.New(rand.NewSource(seed*7919 + int64(len(s.w.name))))
	sched := arrivals(rng, s.w.rate, openSecs)
	src := s.newOpSource(rng.Int63(), nextMut, nextQ)
	ops := make([]op, len(sched))
	for i := range ops {
		ops[i] = src.next()
	}
	return sched, ops, s.newOpSource(rng.Int63(), nextMut, nextQ)
}

// newOpSource seeds the op stream of one phase.
func (s *session) newOpSource(seed int64, nextMut *atomic.Int64, nextQ *[3]atomic.Int64) *opSource {
	src := &opSource{
		w:   s.w,
		rng: rand.New(rand.NewSource(seed)),
		ref: s.ref,
		nextMut: func() int {
			return int(nextMut.Add(1) - 1)
		},
	}
	for i, q := range s.qs {
		r := constRoute
		if q.linear {
			r = linearRoute
		}
		src.byRoute[r] = append(src.byRoute[r], i)
	}
	for r := constRoute; r <= linearRoute; r++ {
		qs, ctr := src.byRoute[r], &nextQ[r]
		src.nextQ[r] = func() int { return qs[int(ctr.Add(1)-1)%len(qs)] }
	}
	return src
}
