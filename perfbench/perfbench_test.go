package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xqindep/internal/obs"
)

// miniature shrinks a workload to a minimal-length run: a handful of
// requests, one short timed phase, and the fewest set-ups.
func miniature(t *testing.T, name string) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if w.grid != nil {
		// Keep one point past the node budget so the ladder runs.
		grid := []gridPoint{{1, 1}, {2, 2}, {20, 4}}
		w.requests = func(reference) []request { return rbenchRequests(grid) }
	} else {
		full := w.requests
		w.requests = func(ref reference) []request { return full(ref)[:24] }
		if w.planCache > 0 {
			w.planCache = 6
		}
	}
	w.minSamples = 1
	w.setupReps = 2
	return w
}

type report struct {
	lines []string
	last  struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
}

func measureMini(t *testing.T, w *workload, ref reference, trace bool) (int, report) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	o := options{workload: w.name, seed: 7, seconds: 0.01, trace: trace,
		spans: filepath.Join(t.TempDir(), "spans.jsonl")}
	code := measure(w, ref, o, &stdout, &stderr)
	var r report
	r.lines = strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(r.lines[len(r.lines)-1]), &r.last); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s\n%s", w.name, err, stdout.String(), stderr.String())
	}
	return code, r
}

// benchmarkFile is the part of BENCHMARK.json the program must agree
// with: the metric names and units the harness reads.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEveryWorkloadPrintsItsMetrics runs every workload at minimal
// length, untraced and traced, and checks that each end-to-end metric
// is printed by name with its unit and that the result object carries
// exactly the metrics BENCHMARK.json declares.
func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	ref, err := loadReference(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	bf := loadBenchmarkFile(t)
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	if strings.Join(declared, ",") != strings.Join(names, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", declared, names)
	}
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			mini := miniature(t, w.name)
			code, r := measureMini(t, mini, ref, false)
			if code != 0 || !r.last.Correct || r.last.Attempted == 0 {
				t.Fatalf("exit %d, result %+v", code, r.last)
			}
			tail := "latency_p99_ms"
			if w.tail == 0.90 {
				tail = "latency_p90_ms"
			}
			for _, want := range [][2]string{
				{"setup_s", "s"}, {"throughput_rps", "req/s"}, {"latency_p50_ms", "ms"}, {tail, "ms"},
				{"failed_ratio", "ratio"}, {"degraded_ratio", "ratio"}, {"heap_live_mb", "MiB"},
			} {
				if !printed(r.lines, "metric", want[0], want[1]) {
					t.Errorf("no %s line in %s printed", want[0], want[1])
				}
			}
			checkDeclared(t, r.last.Metrics, bf.EndToEnd)
			if w.grid != nil && !between(t, r.last.Metrics["exact_ratio"], 0, 1) {
				t.Errorf("rbench: no degraded verdict, exact_ratio %s", r.last.Metrics["exact_ratio"])
			}

			code, r = measureMini(t, mini, ref, true)
			if code != 0 || !r.last.Correct {
				t.Fatalf("traced: exit %d, result %+v", code, r.last)
			}
			checkDeclared(t, r.last.Metrics, bf.PerLayer)
			for _, l := range layers {
				if !printed(r.lines, "layer", l+".busy_ms", "ms") {
					t.Errorf("traced: no busy time for layer %s", l)
				}
			}
		})
	}
}

// TestFlippedReferenceFails flips one reference verdict and checks the
// run reports it incorrect and exits non-zero.
func TestFlippedReferenceFails(t *testing.T) {
	ref, err := loadReference(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	key := pairKey("UA1", "q1")
	ref[key] = !ref[key]
	code, r := measureMini(t, miniature(t, "xmark-cold"), ref, false)
	if code != 1 || r.last.Correct {
		t.Fatalf("a flipped reference verdict gave exit %d, correct=%v", code, r.last.Correct)
	}
}

// printed reports whether a "<kind> <name> <value> <unit>" line was
// printed.
func printed(lines []string, kind, name, unit string) bool {
	for _, l := range lines {
		if f := strings.Fields(l); len(f) == 4 && f[0] == kind && f[1] == name && f[3] == unit {
			return true
		}
	}
	return false
}

func checkDeclared(t *testing.T, got map[string]json.RawMessage, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("result has %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, m := range want {
		raw, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s missing from the result", m.Name)
			continue
		}
		var v struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(raw, &v); err != nil || v.Value == nil || v.Unit != m.Unit {
			t.Errorf("metric %s = %s, want a value in %s", m.Name, raw, m.Unit)
		}
	}
}

// between reports whether a result metric's value lies strictly
// between lo and hi.
func between(t *testing.T, raw json.RawMessage, lo, hi float64) bool {
	t.Helper()
	var v struct{ Value float64 }
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	return v.Value > lo && v.Value < hi
}

// TestRequestCosts checks the self-time rules on one synthetic cold
// request: the server is ServeHTTP less what its serve span holds, core
// is the rung less the layers in it, cdag.build is split in the replay's
// proportions, and the unattributed gap is what the parse.update and
// cdag.conflict marks hold beyond their replayed calls.
func TestRequestCosts(t *testing.T) {
	us := func(n int64) int64 { return n * 1000 }
	tr := &traced{
		Phase:  phaseTimed,
		HTTP:   interval{Start: 0, End: us(1000)},
		Server: interval{Start: us(100), End: us(900)},
		Served: []obs.Span{
			{Name: "serve", Depth: 0, DurUS: 700},
			{Name: "parse.schema", Depth: 1, DurUS: 10, Mark: true},
			{Name: "parse.query", Depth: 1, DurUS: 20, Mark: true},
			{Name: "parse.update", Depth: 1, DurUS: 70, Mark: true},
			{Name: "rung:chains", Depth: 1, DurUS: 500},
			{Name: "core.analyze", Depth: 2, DurUS: 5, Mark: true},
			{Name: "core.plan/fingerprint", Depth: 2, DurUS: 40, Mark: true},
			{Name: "core.plan/lookup", Depth: 2, DurUS: 1, Mark: true},
			{Name: "core.plan/kfactors", Depth: 2, DurUS: 4, Mark: true},
			{Name: "cdag.build", Depth: 2, DurUS: 400, Mark: true},
			{Name: "cdag.conflict", Depth: 2, DurUS: 50, Mark: true},
		},
		Replay: []call{
			{Name: "parse.update", interval: interval{Start: 0, End: us(30)}},
			{Name: "cdag.query", interval: interval{Start: 0, End: us(100)}},
			{Name: "cdag.update", interval: interval{Start: 0, End: us(300)}},
			{Name: "cdag.conflict", interval: interval{Start: 0, End: us(20)}},
		},
	}
	costs, gap := requestCosts(tr)
	want := map[string]int64{
		"http": 200, "server": 200, "parse.schema": 10, "parse.query": 20, "parse.update": 30,
		"core": 5, "plan.fingerprint": 40, "plan.lookup": 1, "plan.kfactors": 4,
		"cdag.query": 100, "cdag.update": 300, "cdag.conflict": 20,
	}
	if len(costs) != len(want) {
		t.Errorf("costs for %d layers, want %d", len(costs), len(want))
	}
	for l, w := range want {
		if c := costs[l]; c == nil || c.dur != us(w) {
			t.Errorf("%s self time %v, want %dus", l, c, w)
		}
	}
	if gap != us(40+30) {
		t.Errorf("gap %dns, want 70us", gap)
	}
}
