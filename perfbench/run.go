package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"xqindep"
	"xqindep/internal/core"
	"xqindep/internal/dtd"
	"xqindep/internal/server"
)

// requestTimeout is xqindepd's -timeout default.
const requestTimeout = 5 * time.Second

// served is one booted serving stack: the public pool behind a real
// loopback HTTP server, and a client limited to one connection per
// caller.
type served struct {
	pool   *xqindep.Pool
	ts     *httptest.Server
	client *http.Client
}

// boot starts a pool with xqindepd's defaults and the workload's plan
// cache bound, serves its handler (wrapped by wrap when non-nil) over
// loopback, and parses and compiles every schema of the request set
// through the process-wide compile cache the pool shares and through
// the handler's schema cache. Compiled schemas are purged first, so
// every boot pays the compile a fresh process pays.
func boot(w *workload, reqs []request, wrap func(http.Handler) http.Handler) (*served, error) {
	pool := xqindep.NewPool(xqindep.PoolOptions{
		Workers:        poolWorkers,
		RequestTimeout: requestTimeout,
		PlanCacheSize:  w.planCache,
		TraceRing:      traceRing,
	})
	var h http.Handler = pool.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	sv := &served{
		pool: pool,
		ts:   httptest.NewServer(h),
		client: &http.Client{Transport: &http.Transport{
			Proxy:               nil, // loopback only
			MaxConnsPerHost:     w.clients,
			MaxIdleConnsPerHost: w.clients,
			DisableCompression:  true,
		}},
	}
	seen := map[string]bool{}
	for i := range reqs {
		text := reqs[i].schema
		if seen[text] {
			continue
		}
		seen[text] = true
		d, err := dtd.Parse(text)
		if err != nil {
			sv.close()
			return nil, fmt.Errorf("schema of %s: %w", reqs[i].key, err)
		}
		dtd.PurgeCompiled(d.Fingerprint())
		if a := core.NewAnalyzer(d); a.C == nil {
			sv.close()
			return nil, fmt.Errorf("schema of %s does not compile", reqs[i].key)
		}
		// Fill the handler's own schema cache too, with a pair outside
		// the request set, so that no timed request parses its schema
		// text and which one would does not depend on the seed.
		o := sv.send(&request{body: wireBody(text, primeQuery, "delete "+primeQuery)}, nil)
		if o.status != http.StatusOK {
			sv.close()
			return nil, fmt.Errorf("priming the schema of %s: status %d", reqs[i].key, o.status)
		}
	}
	return sv, nil
}

// primeQuery names an element no schema of the request sets has.
const primeQuery = "/perfbench"

func (sv *served) close() {
	sv.ts.Close()
	sv.client.CloseIdleConnections()
	sv.pool.Close()
}

// outcome is what one client saw for one request.
type outcome struct {
	lat    time.Duration
	status int // 0 for a transport error
	resp   server.AnalyzeResponse
}

// send posts one request and decodes the verdict; the latency runs
// from just before the request is written to the decoded verdict.
func (sv *served) send(r *request, header http.Header) outcome {
	return sv.sendBody(r.body, header)
}

// sendBody is send with the wire body given.
func (sv *served) sendBody(body []byte, header http.Header) outcome {
	t0 := time.Now()
	hr, err := http.NewRequest(http.MethodPost, sv.ts.URL+"/analyze", bytes.NewReader(body))
	if err != nil {
		return outcome{lat: time.Since(t0)}
	}
	hr.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		hr.Header[k] = v
	}
	resp, err := sv.client.Do(hr)
	if err != nil {
		return outcome{lat: time.Since(t0)}
	}
	o := outcome{status: resp.StatusCode}
	derr := json.NewDecoder(resp.Body).Decode(&o.resp)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	o.lat = time.Since(t0)
	if derr != nil && o.status == http.StatusOK {
		o.status = 0
	}
	return o
}

// verdictProblem checks one answered verdict against its reference: a
// full-strength verdict must equal it exactly, a degraded one must be
// sound (never Independent where the reference is dependent).
func verdictProblem(r *request, indep, degraded bool) string {
	switch {
	case degraded && indep && !r.indep:
		return fmt.Sprintf("%s: unsound degraded verdict independent=true", r.key)
	case !degraded && indep != r.indep:
		return fmt.Sprintf("%s: verdict independent=%v, reference %v", r.key, indep, r.indep)
	}
	return ""
}

// record is what a run keeps of one timed send. It holds no pointers,
// so the heap figure can leave the records out exactly.
type record struct {
	seq      int           // position in the send sequence
	sent     time.Duration // when the send began, since the run began
	lat      time.Duration
	status   int
	indep    bool
	degraded bool
}

// tally collects the records and the correctness problems of a phase.
type tally struct {
	mu       sync.Mutex
	records  []record
	problems []string
}

func (t *tally) problem(p string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.problems) < 20 {
		t.problems = append(t.problems, p)
	} else if len(t.problems) == 20 {
		t.problems = append(t.problems, "... (further problems suppressed)")
	}
}

// check records the correctness problems of one outcome; a non-200
// response is a failure, not a wrong verdict.
func (t *tally) check(w *workload, r *request, o outcome, timed bool) {
	if o.status != http.StatusOK {
		return
	}
	if p := verdictProblem(r, o.resp.Independent, o.resp.Degraded); p != "" {
		t.problem(p)
	}
	if timed && w.wantWarm && o.resp.Plan != "warm" {
		t.problem(fmt.Sprintf("%s: plan %q, want a warm hit", r.key, o.resp.Plan))
	}
}

// drive runs clients closed-loop callers over sequence positions from
// lo until stop reports true for the next position, and waits for
// them. Positions are handed out in order, so the positions sent are
// always a contiguous range.
func drive(clients, lo int, stop func(i int) bool, do func(client, i int)) {
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if stop(i) {
					return
				}
				do(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// blockStop returns a drive stop rule that ends on the first block
// boundary at or after minSamples sends once done reports true. The
// boundary lies past every position already let through, so the
// positions sent stay contiguous.
func blockStop(block, minSamples int, done func() bool) func(i int) bool {
	var mu sync.Mutex
	end, passed := -1, -1
	return func(i int) bool {
		mu.Lock()
		defer mu.Unlock()
		if end < 0 && i >= minSamples && done() {
			hi := max(i, passed+1)
			end = (hi + block - 1) / block * block
		}
		if end >= 0 && i >= end {
			return true
		}
		passed = max(passed, i)
		return false
	}
}

// cpuSteal reads the machine's cumulative steal time from /proc/stat
// (0 where there is none), assuming the usual 100 ticks per second.
func cpuSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// heapLiveMiB forces a collection and reports the live heap, less the
// benchmark's own records of the timed sends, whose number varies with
// the speed of the run.
func heapLiveMiB(records []record) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	own := uint64(cap(records)) * uint64(unsafe.Sizeof(record{}))
	return float64(ms.HeapAlloc-own) / (1 << 20)
}

// e2eResult is the untraced measurement of one run.
type e2eResult struct {
	setups  []time.Duration
	records []record // timed sends, ordered by sequence position
	block   int      // sends per pass or block of the sequence
	wall    time.Duration
	heapMiB float64
	// planHits and planMisses count the pool's plan-cache lookups in
	// the timed phase.
	planHits, planMisses int64
	// steal is CPU time the machine's host took from this one during
	// the timed phase, where the host reports it.
	steal    time.Duration
	problems []string
}

func (r *e2eResult) countPlans(before, after xqindep.PlanCacheStats) {
	r.planHits += after.Hits - before.Hits
	r.planMisses += after.Misses - before.Misses
}

// runE2E measures a workload end to end: set-up, then closed-loop
// clients over loopback for at least seconds and minSamples sends.
// Per-pass workloads boot a fresh pool for every pass and always send
// whole passes; on a refined workload the passes after the first send
// only the requests the first answered at full strength.
func runE2E(w *workload, reqs []request, seq *sequence, fillSeq *sequence, seconds float64) (*e2eResult, error) {
	res := &e2eResult{block: seq.block}
	tl := &tally{}
	budget := time.Duration(seconds * float64(time.Second))
	n := len(reqs)

	setup := func() (*served, error) {
		// Collect the previous pass's garbage first, so no set-up pays
		// for it.
		runtime.GC()
		t0 := time.Now()
		sv, err := boot(w, reqs, nil)
		if err != nil {
			return nil, err
		}
		if w.fill {
			drive(w.clients, 0, func(i int) bool { return i >= n }, func(_, i int) {
				r := &reqs[fillSeq.at(i)]
				o := sv.send(r, nil)
				if o.status != http.StatusOK {
					tl.problem(fmt.Sprintf("%s: fill request failed with status %d", r.key, o.status))
				}
				tl.check(w, r, o, false)
			})
		}
		res.setups = append(res.setups, time.Since(t0))
		return sv, nil
	}
	// Extra set-ups make setup_s a median; their pools are discarded.
	for i := 1; i < w.setupReps; i++ {
		sv, err := setup()
		if err != nil {
			return nil, err
		}
		sv.close()
	}

	runStart := time.Now()
	timedSend := func(sv *served) func(c, i int) {
		return func(_, i int) {
			r := &reqs[seq.at(i)]
			sent := time.Since(runStart)
			o := sv.send(r, nil)
			tl.check(w, r, o, true)
			tl.mu.Lock()
			tl.records = append(tl.records, record{
				seq: i, sent: sent, lat: o.lat, status: o.status,
				indep: o.resp.Independent, degraded: o.resp.Degraded,
			})
			tl.mu.Unlock()
		}
	}

	steal0 := cpuSteal()
	defer func() { res.steal = cpuSteal() - steal0 }()
	if w.perPass {
		for pass := 0; ; pass++ {
			sv, err := setup()
			if err != nil {
				return nil, err
			}
			ps0 := sv.pool.PlanStats()
			t0 := time.Now()
			lo, hi := 0, seq.passEnd(pass)
			if pass > 0 {
				lo = seq.passEnd(pass - 1)
			}
			drive(w.clients, lo, func(i int) bool { return i >= hi }, timedSend(sv))
			res.wall += time.Since(t0)
			res.countPlans(ps0, sv.pool.PlanStats())
			res.heapMiB = heapLiveMiB(tl.records)
			sv.close()
			if pass == 0 && w.refine {
				keep := make([]bool, n)
				for _, rc := range tl.records {
					keep[seq.at(rc.seq)] = rc.status == http.StatusOK && !rc.degraded
				}
				seq.refine(keep)
			}
			if res.wall >= budget && hi >= w.minSamples {
				break
			}
		}
	} else {
		sv, err := setup()
		if err != nil {
			return nil, err
		}
		ps0 := sv.pool.PlanStats()
		t0 := time.Now()
		drive(w.clients, 0, blockStop(seq.block, w.minSamples, func() bool { return time.Since(t0) >= budget }), timedSend(sv))
		res.wall = time.Since(t0)
		res.countPlans(ps0, sv.pool.PlanStats())
		res.heapMiB = heapLiveMiB(tl.records)
		sv.close()
	}
	res.records = tl.records
	sortRecords(res.records)
	res.problems = tl.problems
	return res, nil
}
