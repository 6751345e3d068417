package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"xqindep/internal/rbench"
	"xqindep/internal/xmark"
)

// request is one generated analysis request: the wire body the client
// posts and the expectation the verdict is checked against.
type request struct {
	key    string // "UA1/q1" or "d15/e5"
	schema string
	query  string
	update string
	body   []byte
	// indep is the reference verdict: rbench pairs are dependent by
	// construction, XMark pairs come from reference.json.
	indep bool
}

// workload fixes everything a run of one named workload does except
// the seed and the run length.
type workload struct {
	name string
	// clients is the number of closed-loop callers, each waiting for
	// its verdict before sending the next request.
	clients int
	// planCache is PoolOptions.PlanCacheSize (0 = the daemon default).
	planCache int
	// perPass boots a fresh pool for every pass over the request set;
	// otherwise one pool serves a time-bounded stream.
	perPass bool
	// fill sends one full pass through the pool during set-up, so the
	// timed phase only hits the plan cache.
	fill bool
	// wantWarm requires plan:"warm" on every timed response.
	wantWarm bool
	// zipf draws the stream from a Zipf law over the requests instead
	// of concatenated shuffled passes.
	zipf bool
	// minSamples is the fewest timed requests a run makes: at least
	// ten samples lie beyond the reported tail percentile, and on
	// xmark-churn and rbench-recursive enough are sent for steady
	// figures.
	minSamples int
	// tail is the reported tail percentile.
	tail float64
	// refine makes every pass after a run's first send only the
	// requests that answered at full strength in the first (see
	// newSequence).
	refine bool
	// setupReps is how many set-ups a run measures before its first
	// timed send; per-pass workloads add one for every pass.
	setupReps int
	// requests builds the request set.
	requests func(reference) []request
	// grid is the rbench grid (nil on the XMark workloads).
	grid []gridPoint
}

type gridPoint struct{ N, M int }

// The rbench grid: d_n for every n in rbenchN, paired with (e_m,
// delete e_m) for every m in rbenchM, and the deep points rbenchDeep
// of the repository's Figure 3d grid (m = 10). It keeps the points past
// the served chain rung's per-worker node budget next to the small
// points that answer in milliseconds: with two workers (15,5), (20,4)
// and (20,5) overrun it and the types rung answers after up to five
// seconds, and (10,10) and (20,10) run into the 5 s request timeout,
// where the paths rung answers.
var (
	rbenchN    = []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20}
	rbenchM    = []int{1, 2, 3, 4, 5}
	rbenchDeep = []gridPoint{{10, 10}, {20, 10}}
)

// Daemon defaults the pool is booted with (cmd/xqindepd flags), and
// the worker count, pinned to the benchmark machine's two CPUs because
// each worker's node budget is the pool budget divided by it.
const (
	poolWorkers = 2
	traceRing   = 64
)

func workloads() []*workload {
	matrix := len(xmark.Views()) * len(xmark.Updates())
	var grid []gridPoint
	for _, n := range rbenchN {
		for _, m := range rbenchM {
			grid = append(grid, gridPoint{n, m})
		}
	}
	grid = append(grid, rbenchDeep...)
	// BENCHMARK.json says why each workload is there.
	return []*workload{
		{
			name:    "xmark-cold",
			clients: 1, perPass: true, minSamples: matrix, tail: 0.99, setupReps: 25,
			requests: xmarkRequests,
		},
		{
			name:    "xmark-warm",
			clients: 2, fill: true, wantWarm: true, minSamples: matrix, tail: 0.99, setupReps: 3,
			requests: xmarkRequests,
		},
		{
			name:    "xmark-churn",
			clients: 2, planCache: matrix / 4, zipf: true, minSamples: 4 * zipfBlock, tail: 0.99, setupReps: 25,
			requests: xmarkRequests,
		},
		{
			name:    "rbench-recursive",
			clients: 1, perPass: true, refine: true, minSamples: 1000, tail: 0.90, setupReps: 25,
			requests: func(reference) []request { return rbenchRequests(grid) },
			grid:     grid,
		},
	}
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

func wireBody(schema, query, update string) []byte {
	b, err := json.Marshal(map[string]string{"schema": schema, "query": query, "update": update})
	if err != nil {
		panic(err) // strings always marshal
	}
	return b
}

// xmarkRequests is the 36×31 matrix in view-major order.
func xmarkRequests(ref reference) []request {
	var out []request
	for _, u := range xmark.Updates() {
		for _, v := range xmark.Views() {
			key := pairKey(u.Name, v.Name)
			out = append(out, request{
				key: key, schema: xmark.SchemaText, query: v.Text, update: u.Text,
				body:  wireBody(xmark.SchemaText, v.Text, u.Text),
				indep: ref[key],
			})
		}
	}
	return out
}

// rbenchRequests is the R-benchmark grid: schema d_n with the pair
// (e_m, delete e_m), which is dependent by construction.
func rbenchRequests(grid []gridPoint) []request {
	schemas := map[int]string{}
	var out []request
	for _, p := range grid {
		s, ok := schemas[p.N]
		if !ok {
			s = rbench.SchemaN(p.N).String()
			schemas[p.N] = s
		}
		q := rbench.ExprText(p.M)
		u := "delete " + q
		out = append(out, request{
			key: fmt.Sprintf("d%d/e%d", p.N, p.M), schema: s, query: q, update: u,
			body: wireBody(s, q, u),
		})
	}
	return out
}

// sequence maps the i-th request a run sends to an index into the
// request set. It is a pure function of the seed (and, on a refined
// workload, of which requests its first pass answered at full
// strength), extended lazily one block at a time, and safe for
// concurrent use. Runs end on a block boundary, so every run sends the
// same mix of requests and the seed only changes their order.
type sequence struct {
	block  int // sends per block (per full pass)
	mu     sync.Mutex
	order  []int32
	ends   []int  // end position of every block appended so far
	keep   []bool // requests the passes after the first send (nil: all)
	extend func() // appends the next block to order
}

// The churn draw: Zipf exponent, and sends per block.
const (
	zipfS     = 1.1
	zipfBlock = 4096
)

// popularitySeed fixes which pairs the Zipf draw makes hot. It is part
// of the workload's definition, not of a run: the run's seed drives
// the draws, so runs with different seeds see the same popularity.
const popularitySeed = 1

// newSequence builds the send sequence. Without a Zipf draw each block
// is a seeded shuffle of the whole request set (one pass). With one,
// each block is a seeded shuffle of a systematic sample of the Zipf
// law over the popularity ranks, in which every rank appears the floor
// or the ceiling of its expected count. Every block then holds the
// same requests and the seed decides their order, and with it which
// sends miss the bounded plan cache; the run-to-run spread of the
// sampled work stays small.
func newSequence(w *workload, n int, seed int64) *sequence {
	rng := rand.New(rand.NewSource(seed))
	if !w.zipf {
		s := &sequence{block: n}
		s.extend = func() {
			for _, p := range rng.Perm(n) {
				if s.keep == nil || s.keep[p] {
					s.order = append(s.order, int32(p))
				}
			}
			s.ends = append(s.ends, len(s.order))
		}
		return s
	}
	rank := rand.New(rand.NewSource(popularitySeed)).Perm(n)
	cum := make([]float64, n)
	total := 0.0
	for r := range cum {
		total += math.Pow(float64(r+1), -zipfS)
		cum[r] = total
	}
	draws := make([]int32, zipfBlock)
	for j := range draws {
		u := (float64(j) + 0.5) / zipfBlock * total
		draws[j] = int32(rank[min(sort.SearchFloat64s(cum, u), n-1)])
	}
	s := &sequence{block: zipfBlock}
	s.extend = func() {
		blk := append([]int32(nil), draws...)
		rng.Shuffle(len(blk), func(a, b int) { blk[a], blk[b] = blk[b], blk[a] })
		s.order = append(s.order, blk...)
		s.ends = append(s.ends, len(s.order))
	}
	return s
}

// at returns the request index of the i-th send. Without a Zipf draw
// the sequence is a concatenation of seeded shuffles, one per pass.
func (s *sequence) at(i int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.order) <= i {
		s.extend()
	}
	return int(s.order[i])
}

// passEnd returns the position just past the last send of pass p.
func (s *sequence) passEnd(p int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.ends) <= p {
		s.extend()
	}
	return s.ends[p]
}

// refine limits the passes not yet appended to the requests keep
// holds. On rbench-recursive a degraded point takes up to the 5 s
// request timeout, whatever the seed, so sending the degraded points
// once a run and the others again pass after pass gives each of them
// tens of samples in a run that fits the time limit; the latency
// percentiles, which lie among the points answered at full strength,
// are then steady, while the degraded points still count in every
// figure.
func (s *sequence) refine(keep []bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keep = keep
}
