// Command perfbench is the repository's benchmark. It boots the real
// serving stack in process — xqindep.NewPool(...).Handler() behind
// httptest.NewServer, with xqindepd's defaults — drives one seeded
// closed-loop workload over loopback HTTP, checks every verdict
// against a reference, and prints every metric by name with its unit.
// With --trace 1 it also replays the same sends through each layer's
// public functions and prints per-layer figures instead.
//
// Run it from the repository root; run.sh builds it first:
//
//	bash perfbench/run.sh --workload xmark-cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// The exit code is 0 when every verdict is correct, 1 when one is not,
// and 2 when the run could not be made.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"xqindep/internal/plan"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one printed figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	var traceFlag int
	var genRef string
	fl.StringVar(&o.workload, "workload", "", "workload name: xmark-cold, xmark-warm, xmark-churn or rbench-recursive")
	fl.Int64Var(&o.seed, "seed", 1, "workload seed: drives every shuffle and the Zipf draw")
	fl.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	fl.IntVar(&traceFlag, "trace", 0, "1 runs the traced replay and prints per-layer figures")
	fl.StringVar(&o.spans, "spans", "", "where the traced run writes its spans (default .bench_build/spans/<workload>-seed<seed>.jsonl)")
	fl.StringVar(&genRef, "gen-reference", "", "derive the XMark reference verdicts into this file and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if genRef != "" {
		if err := generateReference(genRef); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	o.trace = traceFlag == 1
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ref, err := loadReference(referenceJSON)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	return measure(w, ref, o, stdout, stderr)
}

// measure runs one workload and prints its report; the last line is
// the harness's JSON object.
func measure(w *workload, ref reference, o options, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(poolWorkers)
	reqs := w.requests(ref)
	seq := newSequence(w, len(reqs), o.seed)
	// The warm-up fill has a shuffle of its own, so it is no prefix of
	// the timed sequence.
	fillSeq := newSequence(&workload{}, len(reqs), o.seed^0x5eed)

	stamp := runStamp(w, o)
	sj, _ := json.Marshal(stamp)
	fmt.Fprintf(stdout, "stamp %s\n", sj)

	ew, seconds := *w, o.seconds
	if o.trace {
		// The traced run's end-to-end phase only provides the sends to
		// replay and their untraced latencies, so it is as short as the
		// workload allows: one set-up and one pass or block.
		ew.setupReps, ew.minSamples, seconds = 1, 1, 0
	}
	e2e, err := runE2E(&ew, reqs, seq, fillSeq, seconds)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	attempted := len(e2e.records)
	failed := 0
	for _, rc := range e2e.records {
		if rc.status != http.StatusOK {
			failed++
		}
	}
	problems := e2e.problems
	var metrics []metric
	if o.trace {
		tr, err := runTraced(w, reqs, seq, fillSeq, e2e, o.spans)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		problems = append(problems, tr.problems...)
		metrics = tr.metrics
		for _, m := range metrics {
			fmt.Fprintf(stdout, "layer %s %s %s\n", m.name, formatValue(m.value), m.unit)
		}
		fmt.Fprintf(stdout, "spans of %d requests written to %s\n", tr.requests, o.spans)
	} else {
		var shown []metric
		metrics, shown = e2eMetrics(w, e2e)
		for _, m := range shown {
			fmt.Fprintf(stdout, "metric %s %s %s\n", m.name, formatValue(m.value), m.unit)
		}
	}
	for _, p := range problems {
		fmt.Fprintln(stderr, "perfbench: INCORRECT:", p)
	}
	out := map[string]any{
		"correct":   len(problems) == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   jsonMetrics(metrics),
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if len(problems) > 0 {
		return 1
	}
	return 0
}

// e2eMetrics derives the end-to-end figures. It returns the metrics
// the harness JSON carries and the longer list printed for people,
// which names the tail percentile and the failure and degradation
// ratios as the workload defines them.
func e2eMetrics(w *workload, e *e2eResult) (harness, shown []metric) {
	answered, exact := 0, 0
	for _, rc := range e.records {
		if rc.status == http.StatusOK {
			answered++
			if !rc.degraded {
				exact++
			}
		}
	}
	tput, p50, tail, per := latencyFigures(w, e)
	setups := append([]time.Duration(nil), e.setups...)
	sortDurations(setups)
	n := len(e.records)
	attempted := float64(n)
	tailName := fmt.Sprintf("latency_p%d_ms", int(math.Round(w.tail*100)))
	setupM := metric{"setup_s", median(setups).Seconds(), "s"}
	tputM := metric{"throughput_rps", tput, "req/s"}
	p50M := metric{"latency_p50_ms", ms(p50), "ms"}
	heap := metric{"heap_live_mb", e.heapMiB, "MiB"}
	harness = []metric{
		setupM, tputM, p50M,
		{"latency_tail_ms", ms(tail), "ms"},
		{"answered_ratio", float64(answered) / attempted, "ratio"},
		{"exact_ratio", float64(exact) / attempted, "ratio"},
		heap,
	}
	shown = []metric{
		setupM, tputM, p50M,
		{tailName, ms(tail), "ms"},
		{"failed_ratio", float64(n-answered) / attempted, "ratio"},
		{"degraded_ratio", float64(answered-exact) / attempted, "ratio"},
		heap,
		{"samples", attempted, "count"},
		{"samples_per_figure", float64(per), "count"},
		{"plan_hit_ratio", ratio(float64(e.planHits), int(e.planHits+e.planMisses)), "ratio"},
		{"setups", float64(len(setups)), "count"},
		{"timed_s", e.wall.Seconds(), "s"},
		{"cpu_steal_s", e.steal.Seconds(), "s"},
	}
	return harness, shown
}

// latencyFigures returns throughput and the p50 and tail latencies.
// The p50 is the median, the mean of the two middle samples when their
// number is even: rbench's two passes hold every grid point twice, so
// the two middle samples are often two different points, and taking
// either one alone would jump between them from run to run.
// When a pass or block of the sequence holds enough sends for ten
// samples beyond the tail percentile, each figure is taken per block
// and the median across blocks is reported, so a burst of outside load
// in one block does not move the run's figure; otherwise the figures
// cover the whole run. per is the number of samples behind each tail
// figure.
func latencyFigures(w *workload, e *e2eResult) (tput float64, p50, tail time.Duration, per int) {
	whole := func(recs []record) (float64, time.Duration, time.Duration) {
		lats := make([]time.Duration, len(recs))
		first, last := recs[0].sent, time.Duration(0)
		for i, rc := range recs {
			lats[i] = rc.lat
			first = min(first, rc.sent)
			last = max(last, rc.sent+rc.lat)
		}
		sortDurations(lats)
		return float64(len(recs)) / (last - first).Seconds(), median(lats), quantile(lats, w.tail)
	}
	if float64(e.block)*(1-w.tail) < 10 || len(e.records) < 2*e.block {
		lats := make([]time.Duration, len(e.records))
		for i, rc := range e.records {
			lats[i] = rc.lat
		}
		sortDurations(lats)
		return float64(len(e.records)) / e.wall.Seconds(), median(lats), quantile(lats, w.tail), len(lats)
	}
	var tputs []float64
	var p50s, tails []time.Duration
	for lo := 0; lo+e.block <= len(e.records); lo += e.block {
		t, a, b := whole(e.records[lo : lo+e.block])
		tputs, p50s, tails = append(tputs, t), append(p50s, a), append(tails, b)
	}
	sort.Float64s(tputs)
	sortDurations(p50s)
	sortDurations(tails)
	return medianF(tputs), median(p50s), median(tails), e.block
}

func median(sorted []time.Duration) time.Duration {
	n := len(sorted)
	return (sorted[(n-1)/2] + sorted[n/2]) / 2
}

func medianF(sorted []float64) float64 {
	n := len(sorted)
	return (sorted[(n-1)/2] + sorted[n/2]) / 2
}

func jsonMetrics(ms []metric) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	return out
}

func formatValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// stamp records what a run measured and on what.
type stamp struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Go         string         `json:"go"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Workers    int            `json:"workers"`
	NProc      int            `json:"nproc"`
	Rev        string         `json:"rev"`
	Source     string         `json:"source_sha256"`
	Settings   map[string]any `json:"settings"`
}

func runStamp(w *workload, o options) stamp {
	planCache := w.planCache
	if planCache == 0 {
		planCache = plan.DefaultCacheSize
	}
	settings := map[string]any{
		"clients":         w.clients,
		"plan_cache":      planCache,
		"trace_ring":      traceRing,
		"request_timeout": requestTimeout.String(),
		"fresh_pool":      map[bool]string{true: "per pass", false: "per run"}[w.perPass],
		"setup_reps":      w.setupReps,
		"min_samples":     w.minSamples,
		"tail_percentile": w.tail,
	}
	if w.zipf {
		settings["zipf_s"] = zipfS
	}
	if w.refine {
		settings["later_passes"] = "only the requests the first pass answered at full strength"
	}
	if w.grid != nil {
		settings["rbench_grid"] = map[string]any{"n": rbenchN, "m": rbenchM, "and": rbenchDeep}
	}
	return stamp{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: poolWorkers, NProc: runtime.NumCPU(),
		Rev: gitRev(), Source: sourceDigest(), Settings: settings,
	}
}

// gitRev names the checked-out commit, or "none" outside a git work
// tree (a benchmark checkout is usually an exported tree).
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the Go sources and go.mod files of the tree the
// benchmark runs in, which identifies the measured code with or
// without git.
func sourceDigest() string {
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sortDurations(d []time.Duration) { sort.Slice(d, func(i, j int) bool { return d[i] < d[j] }) }

func sortRecords(r []record) { sort.Slice(r, func(i, j int) bool { return r[i].seq < r[j].seq }) }

// quantile is the nearest-rank q-quantile of sorted samples (0 when
// there are none).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func quantileF(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(num float64, den int) float64 {
	if den == 0 {
		return 0
	}
	return num / float64(den)
}
