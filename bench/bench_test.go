package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aspp/internal/detect"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalogue")

// benchmarkFile is BENCHMARK.json's shape.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// layerDef is a metricDef without a bound.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var workloadWhy = map[string]string{
	"figs4k":       "asppbench -exp all at n=4000, what a reader reproducing the paper runs: detection, survey and defense heavy, so a routing-kernel win should not show here",
	"sweep80k":     "asppbench fig7-fig12 and susceptibility on the 80,000-AS graph: topology load, routing, core and experiment do nearly all the work and detect none",
	"serve-churn":  "the daemon's steady state through a real unix socket: a fixed prefix set updated in place, 0.55 alarms per update; open loop at 300k updates/s for latency, then closed loop",
	"serve-growth": "the same pipeline the opposite way: never-repeating prefixes, every update an insert, 1 alarm in 257 updates, unbounded table growth; open loop, then closed loop",
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's catalogue
// saying the same thing: a metric the file names and the harness does not
// print (or the reverse) would only show up as a rejected run.
func TestBenchmarkJSON(t *testing.T) {
	want := benchmarkFile{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 30, EndToEnd: endToEnd}
	for _, name := range workloadNames {
		want.Workloads = append(want.Workloads, workloadDef{name, workloadWhy[name]})
	}
	for _, def := range perLayer {
		want.PerLayer = append(want.PerLayer, layerDef{def.Name, def.Unit, def.Better})
	}
	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	wantJSON = append(wantJSON, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", wantJSON, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSON) {
		t.Errorf("BENCHMARK.json differs from the catalogue; run go test ./bench -run TestBenchmarkJSON -update")
	}
	seen := map[string]bool{}
	for _, def := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[def.Name] {
			t.Errorf("metric %s is listed twice", def.Name)
		}
		seen[def.Name] = true
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// TestSmoke runs the one command end to end at the smoke scale: all four
// workloads untraced, the traced pass, the output checks and the failure
// accounting. The command runs each workload as a process of its own, so
// the test builds the harness first.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the harness and asppbench and runs every workload")
	}
	bin := filepath.Join(t.TempDir(), "bench")
	if msg, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, msg)
	}
	var out bytes.Buffer
	cmd := exec.Command(bin, "-smoke")
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("bench -smoke: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, name := range workloadNames {
		if !strings.Contains(text, "== "+name+": attempted") {
			t.Errorf("no result block for %s", name)
		}
	}
	for _, want := range []string{"== traced pass: attempted", "wall_s", "result_latency_ms", "peak_rss_mb", "setup_s", "env: nproc"} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q", want)
		}
	}
	if strings.Contains(text, "FAIL") {
		t.Errorf("failures in a clean run:\n%s", text)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	data, err := os.ReadFile("out/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	roots := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Args["parent"] == float64(-1) {
			roots[ev.Name] = true
		}
	}
	for _, name := range workloadNames {
		if !roots[name] {
			t.Errorf("trace.json has no root span for %s", name)
		}
	}
}

// TestDriverMode checks the contract's single-workload invocation: the
// last line is the result object with exactly the listed metrics.
func TestDriverMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds asppbench")
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-smoke", "--workload", "sweep80k", "--seed", "7", "--seconds", "2", "--trace", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result %+v", res)
	}
	for _, def := range endToEnd {
		if m, ok := res.Metrics[def.Name]; !ok || m.Unit != def.Unit || !(m.Value > 0) {
			t.Errorf("%s: %+v", def.Name, m)
		}
	}
}

func smokeHarness(t *testing.T) *harness {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return &harness{cwd: cwd, outDir: t.TempDir(), seconds: 2, scale: smokeScale}
}

// TestAlarmAccounting tampers with the reference: an alarm the reference
// does not predict must count as extra, one it predicts and the pipeline
// never raises as missing, and a clean run as neither.
func TestAlarmAccounting(t *testing.T) {
	h := smokeHarness(t)
	spec := serveSpecs["serve-churn"]
	for _, tc := range []struct {
		name   string
		tamper func(*churnSource)
		fails  bool
	}{
		{"clean", func(*churnSource) {}, false},
		{"extra", func(s *churnSource) {
			for _, cur := range s.keys {
				if len(cur.first) > 0 {
					cur.first = cur.first[1:] // the pipeline will still raise it
					s.cumFirst[len(s.cumFirst)-1]--
					return
				}
			}
		}, true},
		{"missing", func(s *churnSource) {
			for _, cur := range s.keys {
				if len(cur.first) > 0 {
					cur.first = append(cur.first, expected{cur.first[0].idx, detect.Alarm{Monitor: cur.first[0].alarm.Monitor}})
					s.cumFirst[len(s.cumFirst)-1]++
					return
				}
			}
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := spec.build(h, -1, 3)
			if err != nil {
				t.Fatal(err)
			}
			tc.tamper(c.src.(*churnSource))
			r, err := newRig(h, c)
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()
			err = r.collect(func() error {
				_, err := r.closedPass(context.Background(), int64(len(c.updates)))
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			res := newResult()
			r.account(res, tc.name)
			if (res.Failed > 0) != tc.fails {
				t.Errorf("failed %d, want failures: %v (%v)", res.Failed, tc.fails, res.notes)
			}
			if want := int64(len(c.updates)) + c.src.expectedAlarms(int64(len(c.updates))); res.Attempted != want {
				t.Errorf("attempted %d, want %d", res.Attempted, want)
			}
		})
	}
}

// TestMatcherPositions feeds the reference's own alarms to the matcher in
// order: each must come back at the position of the update that raised
// it, in the first cycle and in later ones.
func TestMatcherPositions(t *testing.T) {
	h := smokeHarness(t)
	c, err := serveSpecs["serve-churn"].build(h, -1, 5)
	if err != nil {
		t.Fatal(err)
	}
	src := c.src.(*churnSource)
	ref := detect.NewDetector(c.monitors, c.g)
	var total int64
	for cycle := int64(0); cycle < 3; cycle++ {
		for i, u := range c.updates {
			for _, a := range ref.Observe(u) {
				total++
				pos, ok := src.expect(a, u.Prefix)
				if want := cycle*src.len() + int64(i); !ok || pos != want {
					t.Fatalf("cycle %d update %d: matched position %d (ok=%v), want %d", cycle, i, pos, ok, want)
				}
			}
		}
		if got := src.expectedAlarms((cycle + 1) * src.len()); got != total {
			t.Fatalf("expectedAlarms after cycle %d: %d, want %d", cycle, got, total)
		}
	}
	if _, ok := src.expect(detect.Alarm{Monitor: 1}, c.updates[0].Prefix); ok {
		t.Error("an alarm from an unknown monitor matched")
	}

	// The growth source: only attacked prefixes match, at the block's last position.
	g, err := serveSpecs["serve-growth"].build(h, -1, 5)
	if err != nil {
		t.Fatal(err)
	}
	gs := g.src.(*growthSource)
	frames := gs.appendFrames(nil, 0, 2*growthBlock)
	perPrefix := 0
	for _, f := range gs.inserts {
		perPrefix += len(f)
	}
	if want := 2 * (growthAttackEvery*perPrefix + len(gs.attack)); len(frames) != want {
		t.Errorf("two growth blocks encode to %d bytes, want %d", len(frames), want)
	}
	if got := gs.expectedAlarms(2*growthBlock + 5); got != int64(2*len(gs.alarms)) {
		t.Errorf("expectedAlarms = %d", got)
	}
}

// TestSeqGap overruns the alarm feed: everything the collector could not
// read any more must be counted as lost, not silently skipped.
func TestSeqGap(t *testing.T) {
	h := smokeHarness(t)
	c, err := serveSpecs["serve-churn"].build(h, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRig(h, c)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	// Send until well over alarmLogCap alarms exist, polling only at the end.
	n := int64(len(c.updates))
	for c.src.expectedAlarms(n) < alarmLogCap+alarmLogCap/2 {
		n += int64(len(c.updates))
	}
	for r.sent < n {
		if err := r.send(min(closedChunk, n-r.sent)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	r.poll()
	r.verified = r.sent
	want := c.src.expectedAlarms(n)
	if r.lost != want-alarmLogCap {
		t.Errorf("lost %d alarms, want %d (raised %d, feed holds %d)", r.lost, want-alarmLogCap, want, alarmLogCap)
	}
	if got := r.nextSeq; got != want {
		t.Errorf("collector stands at Seq %d, want %d", got, want)
	}
	res := newResult()
	r.account(res, "overrun")
	if res.Failed == 0 || res.alarmsLost != r.lost {
		t.Errorf("overrun not counted as failure: failed %d, alarms_lost %d", res.Failed, res.alarmsLost)
	}
}

// TestCompareSets: two sets agree while every metric stays within its
// bound and every exact count repeats, and disagree otherwise.
func TestCompareSets(t *testing.T) {
	set := func(wall float64, alarms string) map[string]*result {
		m := make(map[string]*result)
		for _, name := range workloadNames {
			r := newResult()
			for _, def := range endToEnd {
				r.set(def.Name, 1, def.Unit)
			}
			r.set("wall_s", wall, "s")
			r.exact["alarms"] = alarms
			m[name] = r
		}
		return m
	}
	for _, tc := range []struct {
		name string
		b    map[string]*result
		want bool
	}{
		{"within the bound", set(1.2, "7"), true},
		{"beyond the bound", set(1.5, "7"), false},
		{"count differs", set(1.0, "8"), false},
	} {
		var out bytes.Buffer
		if got := compareSets(&out, []map[string]*result{set(1.0, "7"), tc.b}); got != tc.want {
			t.Errorf("%s: agree = %v, want %v\n%s", tc.name, got, tc.want, out.String())
		}
	}
}

func TestPercentiles(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := percentile(asc, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
	// statistics.quantiles([10, 12, 11, 15, 13, 14, 20, 18, 16, 17], n=4)
	// == [11.75, 14.5, 17.25]
	q1, q2, q3 := quartiles([]float64{10, 12, 11, 15, 13, 14, 20, 18, 16, 17})
	if q1 != 11.75 || q2 != 14.5 || q3 != 17.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got := spread([]float64{10, 12, 11, 15, 13, 14, 20, 18, 16, 17}); math.Abs(got-5.5/14.5) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
	// Window medians 1, 2, 3, 10 and an empty window: the lower decile of
	// the medians ignores the empty one and the noisy ones.
	windows := [][]float64{{1, 1, 1}, {2}, {}, {3, 3}, {9, 10, 11}}
	if got, p50s := quietWindows(windows); math.Abs(got-1.3) > 1e-12 || len(p50s) != 4 {
		t.Errorf("quietWindows = %v over %v, want 1.3 over 4 windows", got, p50s)
	}
}

func TestSelfTime(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Workload: "w", Start: 0, End: msec(100)},
		{ID: 1, Parent: 0, Name: "a", Workload: "w", Start: msec(10), End: msec(40)},
		{ID: 2, Parent: 0, Name: "b", Workload: "w", Start: msec(30), End: msec(60)},  // overlaps a
		{ID: 3, Parent: 0, Name: "b", Workload: "w", Start: msec(90), End: msec(120)}, // runs past the parent
		{ID: 4, Parent: 1, Name: "leaf", Workload: "w", Start: msec(10), End: msec(20)},
		{ID: 5, Parent: 0, Name: "open", Workload: "w", Start: msec(95), End: -1}, // never closed
	}
	got := map[string]selfRow{}
	for _, r := range selfTimes(spans) {
		got[r.Name] = r
	}
	// Children cover [10,60) and [90,100) of the root: 60 ms.
	if r := got["root"]; r.Self != msec(40) || r.Total != msec(100) {
		t.Errorf("root: %+v", r)
	}
	if r := got["a"]; r.Self != msec(20) {
		t.Errorf("a: %+v", r)
	}
	if r := got["b"]; r.Count != 2 || r.Self != msec(60) {
		t.Errorf("b: %+v", r)
	}
	if _, ok := got["open"]; ok {
		t.Error("an unclosed span was counted")
	}
}
