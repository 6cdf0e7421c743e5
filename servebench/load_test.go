package main

import (
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/serve"
)

// TestLoopsAgainstInProcessServer drives the open and closed loops of
// each workload against an in-process server for a moment: every reply
// must pass the checks, and churn's acknowledged mutations must leave the
// server's counts equal to the in-process replay. Run it under -race: the
// loops share the session across their workers.
func TestLoopsAgainstInProcessServer(t *testing.T) {
	ds, err := generate(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			qs := ds.warm
			if w.cold {
				qs = ds.cold[:64]
			}
			ref, err := newReference(ds.db, qs, w.name == "read-warm")
			if err != nil {
				t.Fatal(err)
			}
			db := ds.db.Clone()
			srv := httptest.NewServer(serve.New(db, nil, serve.Config{}).Handler())
			defer srv.Close()
			s := &session{w: w, c: newClient(strings.TrimPrefix(srv.URL, "http://"), 8), qs: qs, ref: ref}
			defer s.c.close()
			if err := s.prepareAll(); err != nil {
				t.Fatal(err)
			}
			s.cursors = make([][]string, len(qs))
			if w.name == "read-warm" {
				if err := s.harvest(); err != nil {
					t.Fatal(err)
				}
			}
			if w.name == "churn" {
				s.script = ds.mutationScript(qs, 400)
			}
			w.rate = 40
			var nextMut atomic.Int64
			var nextQ [3]atomic.Int64
			sched, ops, closed := s.planOps(ds.seed, 0.5, &nextMut, &nextQ)
			s.openLoop(ops, sched)
			s.closedLoop(closed, 2, 200e6)
			if n := s.failed.Load(); n > 0 {
				t.Fatalf("%d failed requests: %v", n, s.errs)
			}
			if w.name != "churn" {
				return
			}
			check := ds.db.Clone()
			for _, i := range s.applied {
				if err := s.script[i].apply(check); err != nil {
					t.Fatal(err)
				}
			}
			want, err := recount(check, qs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range qs {
				got, err := s.c.count(s.handles[i])
				if err != nil {
					t.Fatal(err)
				}
				if got != want[i] {
					t.Errorf("%s: server counts %d, replay %d", qs[i].text, got, want[i])
				}
			}
		})
	}
}
