package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xqindep"
	"xqindep/internal/cdag"
	"xqindep/internal/core"
	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/obs"
	"xqindep/internal/xquery"
)

// layers are the per-layer names the traced run reports, outermost
// first. layers.json maps each to the program's own trace marks.
var layers = []string{
	"http", "server", "parse.schema", "parse.query", "parse.update", "core",
	"plan.fingerprint", "plan.lookup", "plan.kfactors",
	"cdag.query", "cdag.update", "cdag.conflict", "types.check",
}

// markLayer maps the names in the program's own trace of a served
// request (the obs spans and guard points a "trace":true response
// returns) to the layer they time. The ladder's rung spans ("rung:*")
// are core; a point under a rung that is not listed here (core.analyze,
// core.artifact, core.plan/infer, core.plan/artifact, core.verdict,
// paths.check) is the ladder's own work and stays in core's self time.
var markLayer = map[string]string{
	"audit.observe":         "server",
	"parse.schema":          "parse.schema",
	"parse.query":           "parse.query",
	"parse.update":          "parse.update",
	"core.quarantine":       "core",
	"core.plan/fingerprint": "plan.fingerprint",
	"core.plan/lookup":      "plan.lookup",
	"core.plan/kfactors":    "plan.kfactors",
	"cdag.build":            markBuild,
	"cdag.conflict":         "cdag.conflict",
	"types.check":           "types.check",
}

// markBuild is chain inference, which the program marks as one phase;
// the traced run splits it into cdag.query and cdag.update.
const markBuild = "cdag.build"

// replayed are the layers timed by calling their public function again
// just after the served request, because their served mark brackets
// more than the call: parse.update's runs on through the hand-off to a
// pool worker and the ladder's prelude, cdag.conflict's through sealing
// the plan and inserting it into the cache. What the marks hold beyond
// the calls is the unattributed gap.
var replayed = map[string]bool{"parse.update": true, "cdag.conflict": true}

func isRung(name string) bool { return strings.HasPrefix(name, "rung:") }

// Phases of the traced run.
const (
	phaseTimed = "timed"  // the end-to-end run's sends, sent again traced
	phaseAlloc = "allocs" // a serial tail measuring allocations
)

// interval is one measured stretch of a traced request, in nanoseconds
// since the traced run began. In the allocation tail Allocs and Bytes
// are the process's cumulative heap-allocation counters at Start and
// End.
type interval struct {
	Start  int64     `json:"start_ns"`
	End    int64     `json:"end_ns"`
	Allocs [2]uint64 `json:"allocs,omitempty"`
	Bytes  [2]uint64 `json:"bytes,omitempty"`
}

func (iv interval) dur() int64 { return iv.End - iv.Start }

// call is one replayed public call.
type call struct {
	Name string `json:"name"`
	interval
	Nodes int `json:"nodes,omitempty"` // guard.Budget node delta (cdag.*)
}

// point is the process's cumulative allocation counters at one of the
// program's trace points, taken in the allocation tail.
type point struct {
	Name          string `json:"name"`
	Allocs, Bytes uint64
}

// traced is everything the traced run keeps of one request; all of it
// shares Req. HTTP is the client's round trip, Server the pool
// handler's ServeHTTP inside it, Served the program's own span tree of
// the request (offsets from its serve span, parents by depth in
// pre-order), Replay the replayed calls, run after the response.
type traced struct {
	Req    int64      `json:"req"`
	Seq    int        `json:"seq"`
	Phase  string     `json:"phase"`
	Key    string     `json:"key"`
	HTTP   interval   `json:"http"`
	Server interval   `json:"server"`
	Served []obs.Span `json:"served"`
	Replay []call     `json:"replay,omitempty"`
	Points []point    `json:"points,omitempty"`
}

// memStats reads the process's cumulative allocation counters.
func memStats() (allocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// clock is the traced run's time base and allocation switch.
type clock struct {
	t0     time.Time
	allocs atomic.Bool
}

func (c *clock) now() int64 { return int64(time.Since(c.t0)) }

func (c *clock) begin(iv *interval) {
	if c.allocs.Load() {
		iv.Allocs[0], iv.Bytes[0] = memStats()
	}
	iv.Start = c.now()
}

func (c *clock) end(iv *interval) {
	iv.End = c.now()
	if c.allocs.Load() {
		iv.Allocs[1], iv.Bytes[1] = memStats()
	}
}

// serverTimer wraps the pool's handler and measures ServeHTTP for each
// traced request, keyed by the request's trace id header.
type serverTimer struct {
	c    *clock
	mu   sync.Mutex
	done map[string]interval
}

const traceHeader = "X-Perfbench-Req"

func (st *serverTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var iv interval
		st.c.begin(&iv)
		h.ServeHTTP(w, r)
		st.c.end(&iv)
		if id := r.Header.Get(traceHeader); id != "" {
			st.mu.Lock()
			st.done[id] = iv
			st.mu.Unlock()
		}
	})
}

// take returns the ServeHTTP interval of a finished request. The
// handler stores it before its response completes, so it is there by
// the time the client has read the body.
func (st *serverTimer) take(id string) (interval, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	iv, ok := st.done[id]
	delete(st.done, id)
	return iv, ok
}

// pointLog takes the allocation counters at every trace point the
// program passes while armed. Only the serial allocation tail arms
// it, so the points of one request are all it holds.
type pointLog struct {
	armed atomic.Bool
	mu    sync.Mutex
	pts   []point
}

var (
	points     pointLog
	pointsOnce sync.Once
)

// installPointHook puts points in the program's trace hook. The hook
// does what package obs's own does — record the point as a mark on the
// request's trace — and takes the allocation counters first when the
// log is armed. A trace is created first so that obs installs its hook
// (once per process) before this one replaces it.
func installPointHook() {
	pointsOnce.Do(func() {
		obs.NewTrace(time.Now).Finish()
		guard.SetTraceHook(func(ctx context.Context, name string, nodes, chains int) {
			if points.armed.Load() {
				a, b := memStats()
				points.mu.Lock()
				points.pts = append(points.pts, point{name, a, b})
				points.mu.Unlock()
			}
			obs.FromContext(ctx).Mark(name, nodes, chains)
		})
	})
}

// replayer holds what the replayed calls need: each schema compiled
// once, outside any timing, and the budget one pool worker gets.
type replayer struct {
	lim      guard.Limits
	mu       sync.Mutex
	compiled map[string]*dtd.Compiled
}

func (rp *replayer) schema(text string) (*dtd.Compiled, error) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if c, ok := rp.compiled[text]; ok {
		return c, nil
	}
	d, err := dtd.Parse(text)
	if err != nil {
		return nil, err
	}
	c := core.NewAnalyzer(d).C
	if c == nil {
		return nil, fmt.Errorf("schema does not compile")
	}
	rp.compiled[text] = c
	return c, nil
}

// timeCall runs f as one replayed call of tr, ending the call even when
// f aborts by panic (a budget overrun).
func timeCall(c *clock, tr *traced, name string, f func(*call)) {
	tr.Replay = append(tr.Replay, call{Name: name})
	i := len(tr.Replay) - 1
	c.begin(&tr.Replay[i].interval)
	defer func() { c.end(&tr.Replay[i].interval) }()
	f(&tr.Replay[i])
}

// replay times xquery.ParseUpdate and, when the served request built a
// plan, chain inference as plan.Prepare runs it — cdag.EngineForCompiled
// and Engine.Query, then Engine.Update — and the three conflict checks,
// under one pool worker's budget share, so a build that overran the
// served budget overruns here at the same node count. It returns the
// replayed verdict when the conflict checks ran.
func (rp *replayer) replay(c *clock, tr *traced, r *request, build bool) (indep, done bool, err error) {
	var u xquery.Update
	timeCall(c, tr, "parse.update", func(*call) { u, err = xquery.ParseUpdate(r.update) })
	if err != nil || !build {
		return false, false, err
	}
	q, err := xquery.ParseQuery(r.query)
	if err != nil {
		return false, false, err
	}
	cs, err := rp.schema(r.schema)
	if err != nil {
		return false, false, err
	}
	nq, nu := xquery.Normalize(q), xquery.NormalizeUpdate(u)
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	b := guard.New(ctx, rp.lim)
	var e *cdag.Engine
	var qc cdag.QueryChains
	var uc *cdag.UpdateSet
	nodes := func(cl *call) func() {
		n0 := b.Nodes()
		return func() { cl.Nodes = b.Nodes() - n0 }
	}
	// An overrun ends the replay where it ended the served build.
	err = guard.Do(func() {
		timeCall(c, tr, "cdag.query", func(cl *call) {
			defer nodes(cl)()
			e = cdag.EngineForCompiled(cs, nq, nu).WithBudget(b)
			qc = e.Query(e.RootEnv(), xquery.Normalize(nq))
		})
		timeCall(c, tr, "cdag.update", func(cl *call) {
			defer nodes(cl)()
			uc = e.Update(e.RootEnv(), xquery.NormalizeUpdate(nu))
		})
		timeCall(c, tr, "cdag.conflict", func(*call) {
			indep = !(cdag.ConflictRetUpdate(qc.Ret, uc) ||
				cdag.ConflictUpdateRet(uc, qc.Ret) ||
				cdag.ConflictUpdateUsed(uc, qc.Used))
			done = true
		})
	})
	if err != nil && !errors.Is(err, guard.ErrBudgetExceeded) {
		return false, false, fmt.Errorf("replaying chain inference: %w", err)
	}
	return indep, done, nil
}

// tracer owns the records of a traced run.
type tracer struct {
	c     *clock
	st    *serverTimer
	rp    *replayer
	mu    sync.Mutex
	reqs  []traced
	reqID atomic.Int64
	kMax  atomic.Int64
}

func newTracer() *tracer {
	c := &clock{t0: time.Now()}
	return &tracer{
		c:  c,
		st: &serverTimer{c: c, done: map[string]interval{}},
		rp: &replayer{lim: guard.Limits{}.Subdivide(poolWorkers), compiled: map[string]*dtd.Compiled{}},
	}
}

// tracedBody is the request's wire body asking for the span trace.
func tracedBody(r *request) []byte {
	b, err := json.Marshal(map[string]any{"schema": r.schema, "query": r.query, "update": r.update, "trace": true})
	if err != nil {
		panic(err) // strings always marshal
	}
	return b
}

// request sends one request with "trace":true, keeps the program's
// span tree from the response, and then replays the calls the served
// marks do not isolate.
func (t *tracer) request(sv *served, r *request, seq int, phase string) (outcome, error) {
	tr := traced{Req: t.reqID.Add(1), Seq: seq, Phase: phase, Key: r.key}
	id := strconv.FormatInt(tr.Req, 10)
	body := tracedBody(r)
	tail := phase == phaseAlloc
	if tail {
		points.mu.Lock()
		points.pts = points.pts[:0]
		points.mu.Unlock()
		points.armed.Store(true)
	}
	t.c.begin(&tr.HTTP)
	o := sv.sendBody(body, http.Header{traceHeader: {id}})
	t.c.end(&tr.HTTP)
	if tail {
		points.armed.Store(false)
		points.mu.Lock()
		tr.Points = append([]point(nil), points.pts...)
		points.mu.Unlock()
	}
	var err error
	if iv, ok := t.st.take(id); !ok {
		err = fmt.Errorf("no ServeHTTP interval recorded")
	} else {
		tr.Server = iv
	}
	tr.Served = o.resp.Trace
	o.resp.Trace = nil
	if err == nil && o.status == http.StatusOK {
		build := false
		for _, sp := range tr.Served {
			build = build || sp.Name == markBuild
		}
		var indep, done bool
		indep, done, err = t.rp.replay(t.c, &tr, r, build)
		if err == nil && done && !o.resp.Degraded && indep != o.resp.Independent {
			err = fmt.Errorf("replayed conflict checks give independent=%v, served %v", indep, o.resp.Independent)
		}
		for k, old := int64(o.resp.K), t.kMax.Load(); k > old && !t.kMax.CompareAndSwap(old, k); old = t.kMax.Load() {
		}
	}
	t.mu.Lock()
	t.reqs = append(t.reqs, tr)
	t.mu.Unlock()
	return o, err
}

// traceResult is the traced run's output.
type traceResult struct {
	metrics  []metric
	problems []string
	requests int
}

// allocTail is how many sends the serial allocation segment makes at
// most, and allocTailTime how long it may take before it stops.
const (
	allocTail     = 64
	allocTailTime = 3 * time.Second
)

// runTraced sends the end-to-end run's sends again, each asking for the
// program's own span trace, with the same client count, pool settings
// and cache state, and requires every verdict to equal the one the
// end-to-end run got for the same send. A serial tail of further sends
// then measures allocations per layer at the program's trace points,
// where no other request's allocations can fall between two of them.
func runTraced(w *workload, reqs []request, seq, fillSeq *sequence, e2e *e2eResult, spansPath string) (*traceResult, error) {
	nA := len(e2e.records)
	for i, rc := range e2e.records {
		if rc.seq != i {
			return nil, fmt.Errorf("traced run: end-to-end sends are not contiguous at %d", i)
		}
	}
	installPointHook()
	n := len(reqs)
	tl := &tally{}
	t := newTracer()
	var stats xqStats
	compile0 := dtd.CompileCacheStats()

	// finish takes a pool's counters over its timed sends and closes it.
	finish := func(sv *served, ps0 xqindep.PlanCacheStats) {
		s := sv.pool.Stats()
		stats.shed += s.Shed
		stats.degraded += s.Degraded
		stats.failed += s.Failed
		ps := sv.pool.PlanStats()
		stats.hits += ps.Hits - ps0.Hits
		stats.misses += ps.Misses - ps0.Misses
		stats.evictions += ps.Evictions - ps0.Evictions
		stats.verifyFailures += ps.VerifyFailures - ps0.VerifyFailures
		stats.resident = max(stats.resident, ps.Resident)
		sv.close()
	}
	send := func(sv *served, i int, phase string) {
		r := &reqs[seq.at(i)]
		o, err := t.request(sv, r, i, phase)
		if err != nil {
			tl.problem(fmt.Sprintf("%s: traced send: %v", r.key, err))
		}
		tl.check(w, r, o, true)
		if phase == phaseTimed {
			if a := e2e.records[i]; a.status == http.StatusOK && o.status == http.StatusOK && a.indep != o.resp.Independent {
				tl.problem(fmt.Sprintf("%s: traced verdict %v, end-to-end run got %v", r.key, o.resp.Independent, a.indep))
			}
		}
	}
	fill := func(sv *served) {
		drive(w.clients, 0, func(i int) bool { return i >= n }, func(_, i int) {
			r := &reqs[fillSeq.at(i)]
			tl.check(w, r, sv.send(r, nil), false)
		})
	}
	// tail is the serial allocation segment after the timed sends.
	tail := func(sv *served) {
		t.c.allocs.Store(true)
		defer t.c.allocs.Store(false)
		t0 := time.Now()
		drive(1, nA, func(i int) bool {
			return i >= nA+allocTail || (i > nA && time.Since(t0) >= allocTailTime)
		}, func(_, i int) { send(sv, i, phaseAlloc) })
	}

	var wall time.Duration
	if w.perPass {
		for pass, lo := 0, 0; lo < nA; pass, lo = pass+1, seq.passEnd(pass) {
			sv, err := boot(w, reqs, t.st.wrap)
			if err != nil {
				return nil, err
			}
			ps0 := sv.pool.PlanStats()
			t0 := time.Now()
			hi := seq.passEnd(pass)
			drive(w.clients, lo, func(i int) bool { return i >= hi }, func(_, i int) { send(sv, i, phaseTimed) })
			wall += time.Since(t0)
			finish(sv, ps0)
		}
		sv, err := boot(w, reqs, t.st.wrap)
		if err != nil {
			return nil, err
		}
		tail(sv)
		sv.close()
	} else {
		sv, err := boot(w, reqs, t.st.wrap)
		if err != nil {
			return nil, err
		}
		if w.fill {
			fill(sv)
		}
		ps0 := sv.pool.PlanStats()
		t0 := time.Now()
		drive(w.clients, 0, func(i int) bool { return i >= nA }, func(_, i int) { send(sv, i, phaseTimed) })
		wall = time.Since(t0)
		// The tail's plan lookups stay out of the cache figures.
		s, ps := sv.pool.Stats(), sv.pool.PlanStats()
		tail(sv)
		sv.close()
		stats.shed, stats.degraded, stats.failed = s.Shed, s.Degraded, s.Failed
		stats.hits, stats.misses = ps.Hits-ps0.Hits, ps.Misses-ps0.Misses
		stats.evictions, stats.verifyFailures = ps.Evictions-ps0.Evictions, ps.VerifyFailures-ps0.VerifyFailures
		stats.resident = ps.Resident
	}
	compile1 := dtd.CompileCacheStats()
	stats.compileHits = compile1.Hits - compile0.Hits
	stats.compileMisses = compile1.Misses - compile0.Misses
	stats.kMax = t.kMax.Load()

	sort.Slice(t.reqs, func(i, j int) bool { return t.reqs[i].Req < t.reqs[j].Req })
	res := &traceResult{problems: tl.problems, requests: len(t.reqs)}
	res.metrics = layerMetrics(t.reqs, e2e, wall, stats)
	if err := writeSpans(spansPath, t.reqs); err != nil {
		return nil, err
	}
	return res, nil
}

// xqStats are the program's own counters over the traced run's timed
// sends.
type xqStats struct {
	shed, degraded, failed                  uint64
	hits, misses, evictions, verifyFailures int64
	resident, kMax                          int64
	compileHits, compileMisses              int64
}

func writeSpans(path string, reqs []traced) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range reqs {
		if err := enc.Encode(&reqs[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfCost is what one layer took in one request.
type selfCost struct {
	dur           int64 // ns
	allocs, bytes int64
	nodes         int
}

// requestCosts returns the self cost of every layer the request ran
// and its unattributed time. Every figure but those of the replayed
// calls comes from the one served execution:
//
//   - http is the client's round trip less ServeHTTP;
//   - server is ServeHTTP less the marks and rung spans the program
//     recorded directly under its serve span;
//   - parse.schema, parse.query, plan.*, and types.check are the
//     program's marks; core is the rung spans less the marks in them
//     that belong to those layers and to cdag.*;
//   - the cdag.build mark is split into cdag.query and cdag.update in
//     the proportions of the replayed calls;
//   - parse.update and cdag.conflict are the replayed calls.
//
// The unattributed time is the round trip less the sum of the self
// times: what the parse.update and cdag.conflict marks hold beyond the
// calls they name. Allocations, taken in the serial tail only, follow
// the same rules, with the interval from one trace point to the next
// standing for the mark and the interval after the last point
// (assembling and writing the response) charged to the server.
func requestCosts(tr *traced) (map[string]*selfCost, int64) {
	costs := map[string]*selfCost{}
	at := func(l string) *selfCost {
		c := costs[l]
		if c == nil {
			c = &selfCost{}
			costs[l] = c
		}
		return c
	}
	lat, srv := tr.HTTP.dur(), tr.Server.dur()
	at("http").dur = lat - srv
	at("server").dur = srv
	var build int64
	replays := map[string]call{}
	for _, cl := range tr.Replay {
		replays[cl.Name] = cl
	}
	inRung := false
	for _, sp := range tr.Served {
		d := sp.DurUS * int64(time.Microsecond)
		l := markLayer[sp.Name]
		switch {
		case sp.Depth == 1 && isRung(sp.Name):
			inRung = true
			at("server").dur -= d
			at("core").dur += d
			continue
		case sp.Depth == 1:
			inRung = false
			if l == "" {
				continue // the server's own point
			}
			at("server").dur -= d
		case sp.Depth == 2 && inRung:
			if l == "" {
				continue // the ladder's own point
			}
			at("core").dur -= d
		default:
			continue
		}
		switch {
		case l == markBuild:
			build += d
		case replayed[l]:
			at(l) // timed by the replayed call
		default:
			at(l).dur += d
		}
	}
	for l := range replayed {
		if c, ok := costs[l]; ok {
			c.dur = replays[l].dur()
		}
	}
	if build > 0 {
		q, u := replays["cdag.query"], replays["cdag.update"]
		share := 1.0
		if sum := q.dur() + u.dur(); u.Name != "" && sum > 0 {
			share = float64(q.dur()) / float64(sum)
		}
		at("cdag.query").dur = int64(share * float64(build))
		at("cdag.query").nodes = q.Nodes
		if u.Name != "" {
			at("cdag.update").dur = build - at("cdag.query").dur
			at("cdag.update").nodes = u.Nodes
		}
	}
	if tr.Phase == phaseAlloc {
		chargeAllocs(tr, costs, replays)
	}
	gap := lat
	for _, c := range costs {
		gap -= c.dur
	}
	return costs, gap
}

// chargeAllocs charges the allocations of a tail request to the layers
// that ran it, by the rules of requestCosts.
func chargeAllocs(tr *traced, costs map[string]*selfCost, replays map[string]call) {
	charge := func(l string, a, b uint64) {
		if c := costs[l]; c != nil {
			c.allocs += int64(a)
			c.bytes += int64(b)
		}
	}
	sa := tr.Server.Allocs[1] - tr.Server.Allocs[0]
	sb := tr.Server.Bytes[1] - tr.Server.Bytes[0]
	charge("http", tr.HTTP.Allocs[1]-tr.HTTP.Allocs[0]-sa, tr.HTTP.Bytes[1]-tr.HTTP.Bytes[0]-sb)
	var buildA, buildB uint64
	prevA, prevB, prev := tr.Server.Allocs[0], tr.Server.Bytes[0], "server"
	flush := func(a, b uint64) {
		da, db := a-prevA, b-prevB
		l := markLayer[prev]
		switch {
		case prev == "server":
			charge("server", da, db)
		case l == markBuild:
			buildA, buildB = buildA+da, buildB+db
		case replayed[l]:
			// charged from the replayed call
		case l == "":
			charge("core", da, db)
		default:
			charge(l, da, db)
		}
	}
	for i, p := range tr.Points {
		flush(p.Allocs, p.Bytes)
		prevA, prevB, prev = p.Allocs, p.Bytes, p.Name
		if i == len(tr.Points)-1 {
			prev = "server" // after the last point: the response
		}
	}
	flush(tr.Server.Allocs[1], tr.Server.Bytes[1])
	for l := range replayed {
		if cl, ok := replays[l]; ok {
			charge(l, cl.Allocs[1]-cl.Allocs[0], cl.Bytes[1]-cl.Bytes[0])
		}
	}
	if buildA > 0 {
		q, u := replays["cdag.query"], replays["cdag.update"]
		qa := float64(q.Allocs[1] - q.Allocs[0])
		ua := float64(u.Allocs[1] - u.Allocs[0])
		share := 1.0
		if u.Name != "" && qa+ua > 0 {
			share = qa / (qa + ua)
		}
		charge("cdag.query", uint64(share*float64(buildA)), uint64(share*float64(buildB)))
		charge("cdag.update", buildA-uint64(share*float64(buildA)), buildB-uint64(share*float64(buildB)))
	}
}

// layerAgg accumulates one layer's self times and allocations.
type layerAgg struct {
	self          []time.Duration
	nodes         int64
	allocCalls    int
	allocs, bytes int64
}

// layerMetrics derives the per-layer figures: timing from the timed
// sends, allocations from the serial tail.
func layerMetrics(reqs []traced, e2e *e2eResult, wall time.Duration, st xqStats) []metric {
	agg := map[string]*layerAgg{}
	for _, l := range layers {
		agg[l] = &layerAgg{}
	}
	var gaps []float64
	var tracedLat []time.Duration
	rungs, timed := 0, 0
	for i := range reqs {
		tr := &reqs[i]
		if len(tr.Served) == 0 {
			continue // not answered
		}
		costs, gap := requestCosts(tr)
		for l, c := range costs {
			a := agg[l]
			if tr.Phase == phaseAlloc {
				a.allocCalls++
				a.allocs += c.allocs
				a.bytes += c.bytes
				continue
			}
			a.self = append(a.self, time.Duration(c.dur))
			a.nodes += int64(c.nodes)
		}
		if tr.Phase == phaseTimed {
			timed++
			for _, sp := range tr.Served {
				if sp.Depth == 1 && isRung(sp.Name) {
					rungs++
				}
			}
			tracedLat = append(tracedLat, time.Duration(tr.HTTP.dur()))
			gaps = append(gaps, ms(time.Duration(gap)))
		}
	}

	var out []metric
	for _, l := range layers {
		a := agg[l]
		sortDurations(a.self)
		var busy time.Duration
		for _, d := range a.self {
			busy += d
		}
		out = append(out,
			metric{l + ".calls", float64(len(a.self)), "count"},
			metric{l + ".busy_ms", ms(busy), "ms"},
			metric{l + ".p50_us", us(quantile(a.self, 0.50)), "us"},
			metric{l + ".p99_us", us(quantile(a.self, 0.99)), "us"},
			metric{l + ".allocs_per_call", ratio(float64(a.allocs), a.allocCalls), "count"},
			metric{l + ".bytes_per_call", ratio(float64(a.bytes), a.allocCalls), "B"},
		)
	}
	out = append(out,
		metric{"server.shed", float64(st.shed), "count"},
		metric{"server.degraded", float64(st.degraded), "count"},
		metric{"server.failed", float64(st.failed), "count"},
		metric{"dtd.compile_hits", float64(st.compileHits), "count"},
		metric{"dtd.compile_misses", float64(st.compileMisses), "count"},
		metric{"plan.hit_ratio", ratio(float64(st.hits), int(st.hits+st.misses)), "ratio"},
		metric{"plan.evictions", float64(st.evictions), "count"},
		metric{"plan.verify_failures", float64(st.verifyFailures), "count"},
		metric{"plan.resident", float64(st.resident), "count"},
		metric{"plan.k_max", float64(st.kMax), "count"},
		metric{"cdag.query.nodes", ratio(float64(agg["cdag.query"].nodes), len(agg["cdag.query"].self)), "count"},
		metric{"cdag.update.nodes", ratio(float64(agg["cdag.update"].nodes), len(agg["cdag.update"].self)), "count"},
		metric{"core.rungs_per_request", ratio(float64(rungs), timed), "count"},
	)
	sort.Float64s(gaps)
	sortDurations(tracedLat)
	untraced := make([]time.Duration, 0, len(e2e.records))
	for _, rc := range e2e.records {
		untraced = append(untraced, rc.lat)
	}
	sortDurations(untraced)
	out = append(out,
		metric{"trace.requests", float64(len(tracedLat)), "count"},
		metric{"trace.gap_ms", quantileF(gaps, 0.5), "ms"},
		metric{"trace.overhead_pct", 100 * (wall.Seconds()/e2e.wall.Seconds() - 1), "%"},
		metric{"trace.served_overhead_pct", 100 * (float64(quantile(tracedLat, 0.5))/float64(quantile(untraced, 0.5)) - 1), "%"},
	)
	return out
}
