package main

import (
	"fmt"
	"math/rand"
)

type opKind int

const (
	opDecide opKind = iota
	opCount
	opPage
	opStream
	opMutate
	numKinds
)

var kindNames = [numKinds]string{"decide", "count", "page", "stream", "mutate"}

func (k opKind) String() string { return kindNames[k] }

// op is one request of a workload. q indexes the workload's query set;
// depth selects a harvested cursor for pages (0 = the first page); mut
// indexes the mutation script.
type op struct {
	kind  opKind
	q     int
	depth int
	mut   int
}

// route selects the statements an op may address.
type route int

const (
	anyRoute route = iota // mutations
	constRoute
	linearRoute
)

// cell is one share of a workload's mix: ops of one kind on statements of
// one route.
type cell struct {
	kind  opKind
	route route
	share float64
}

// workload names a traffic mix over one query set, with its open-loop
// offered rate in requests per second, set below the saturation point of
// the parent commit on a 2-core host.
//
// Each phase draws its ops from a deck holding every cell in its exact
// share, shuffled by the seed, so runs differ in order but not in
// composition. The shares put every median inside one latency mode rather
// than on the boundary between two (a page on the constant-delay route
// costs a random access, on the linear-delay route a re-enumeration), so
// a percentile does not jump between modes from one seed to the next.
type workload struct {
	name string
	why  string
	cold bool // cold-scan: statements visited round-robin, never warm
	mix  []cell
	rate float64
}

var workloads = []workload{
	{
		name: "read-warm",
		why:  "decide, count and paged enumerate over 32 statements kept warm in the 256-entry plan cache: isolates the serving path, the cache probe and page access",
		mix: []cell{
			{opDecide, constRoute, 0.1}, {opDecide, linearRoute, 0.1},
			{opCount, constRoute, 0.1}, {opCount, linearRoute, 0.1},
			{opPage, constRoute, 0.45}, {opPage, linearRoute, 0.15},
		},
		rate: 100,
	},
	{
		name: "churn",
		why:  "the read-warm statements with one single-tuple mutate per four reads: every read after a write pays refresh and recount, writes beside reads",
		mix: []cell{
			{opDecide, constRoute, 0.125}, {opDecide, linearRoute, 0.125},
			{opCount, constRoute, 0.075}, {opCount, linearRoute, 0.075},
			{opPage, constRoute, 0.1}, {opPage, linearRoute, 0.2},
			{opStream, constRoute, 0.1},
			{opMutate, anyRoute, 0.2},
		},
		rate: 25,
	},
	{
		name: "cold-scan",
		why:  "mostly full NDJSON streams over 384 statements walked round-robin, beyond the 256-entry cache: every request pays compile, bind and enumeration",
		cold: true,
		mix: []cell{
			{opDecide, constRoute, 0.05}, {opDecide, linearRoute, 0.05},
			{opCount, constRoute, 0.05}, {opCount, linearRoute, 0.05},
			{opPage, linearRoute, 0.1},
			{opStream, constRoute, 0.45}, {opStream, linearRoute, 0.25},
		},
		rate: 60,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("servebench: unknown workload %q", name)
}

// deckSize is the number of ops in one shuffled deck; the open loop and
// the closed loop each deal from their own decks in turn.
const deckSize = 1000

// opSource deals the ops of one phase. Warm workloads pick a statement of
// the cell's route uniformly (streams among the streamable ones, pages at
// a random harvested depth); cold-scan walks each route's statements
// round-robin, so no statement is revisited before 256 others were.
type opSource struct {
	w       workload
	rng     *rand.Rand
	ref     *reference
	byRoute [3][]int // statement indices per route
	deck    []cell
	nextQ   [3]func() int
	nextMut func() int
}

func (s *opSource) next() op {
	if len(s.deck) == 0 {
		s.deal()
	}
	c := s.deck[0]
	s.deck = s.deck[1:]
	o := op{kind: c.kind}
	switch {
	case c.kind == opMutate:
		o.mut = s.nextMut()
		return o
	case s.w.cold:
		o.q = s.nextQ[c.route]()
		return o
	case c.kind == opStream:
		o.q = s.ref.streamable[s.rng.Intn(len(s.ref.streamable))]
	default:
		qs := s.byRoute[c.route]
		o.q = qs[s.rng.Intn(len(qs))]
	}
	if c.kind == opPage && s.w.name == "read-warm" {
		o.depth = s.rng.Intn(len(s.ref.queries[o.q].cursorOffsets))
	}
	return o
}

// deal fills the deck with every cell in its exact share and shuffles it.
func (s *opSource) deal() {
	for _, c := range s.w.mix {
		for i := 0; i < int(c.share*deckSize+0.5); i++ {
			s.deck = append(s.deck, c)
		}
	}
	s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
}

// arrivals returns evenly spaced arrival offsets (seconds from the phase
// start) at rate per second over d seconds, at a seeded phase: an absolute
// schedule, fixed before the first request is sent. Even spacing (rather
// than Poisson) keeps the generator's own bursts out of the tail.
func arrivals(rng *rand.Rand, rate, d float64) []float64 {
	var out []float64
	phase := rng.Float64()
	for i := 0; ; i++ {
		t := (float64(i) + phase) / rate
		if t >= d {
			return out
		}
		out = append(out, t)
	}
}
