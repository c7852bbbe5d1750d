// Command bench is the repository's benchmark: it builds asppbench, runs
// the four workloads of BENCHMARK.json with tracing off for the
// end-to-end metrics, re-drives the same work in-process with a span
// around every call into a layer for the per-layer metrics, checks every
// output, and prints each metric by name with its unit. See README.md in
// this directory.
//
// Usage:
//
//	go run ./bench -seed 1                      # all workloads, then the traced pass
//	go run ./bench -workload sweep80k -trace 0  # one workload, end-to-end metrics
//	go run ./bench -workload figs4k -trace 1    # the traced pass alone
//	go run ./bench -sets 2                      # noise check: sets must agree within the bounds
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

var workloadNames = []string{"figs4k", "sweep80k", "serve-churn", "serve-growth"}

// scale sizes the workloads. The full scale is the benchmark; the smoke
// scale runs the same code in a few seconds for the tier-1 test.
type scale struct {
	smoke         bool
	figsN, sweepN int
	// Set-up is repeated at least setupReps times, and on until it has
	// taken setupFor in all or setupMax repetitions: a set-up of some
	// milliseconds needs more than three to be timed steadily.
	setupReps, setupMax int
	setupFor            time.Duration
	batchReps           int // 0: sized from -seconds

	serveN, events                int
	churnMonitors, growthMonitors int
	rate                          int     // open-loop updates/s: a constant, never derived at run time
	openSecs                      float64 // 0: half of -seconds
	passes                        int     // 0: sized from -seconds
	churnPassUpdates              int64
	growthPassPrefixes            int64
	microReps                     int // repetitions of the in-process layer timings
}

var (
	fullScale = scale{
		figsN: 4000, sweepN: 80000, setupReps: 3, setupMax: 15, setupFor: time.Second,
		serveN: 2000, events: 60, churnMonitors: 40, growthMonitors: 10,
		rate: 300_000, churnPassUpdates: 2_000_000, growthPassPrefixes: 1_000_000,
		microReps: 3,
	}
	smokeScale = scale{
		smoke: true,
		figsN: 300, sweepN: 1000, setupReps: 1, batchReps: 1,
		serveN: 300, events: 20, churnMonitors: 20, growthMonitors: 10,
		rate: 20_000, openSecs: 0.4, passes: 1, churnPassUpdates: 20_000, growthPassPrefixes: 6_400,
		microReps: 1,
	}
)

// setUpAgain says whether set-up, done so many times in so long, is to be
// repeated once more.
func (s scale) setUpAgain(done int, spent time.Duration) bool {
	return done < s.setupReps || done < s.setupMax && spent < s.setupFor
}

// harness is one invocation's shared state.
type harness struct {
	root, cwd, outDir string
	asppbench         string
	buildSecs         float64
	seconds           float64
	scale             scale
	pinned            pinned
	tr                *tracer // nil unless this is the traced pass
	sockets           int
	log               io.Writer
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type named struct {
	name string
	metric
}

// result is what one run of one workload (or the traced pass) produced.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	extra []named  // numbers printed beside the metrics but not part of them
	notes []string // what ran, and every failure
	// exact holds the counts and digests that must repeat bit for bit
	// across sets of the same seed.
	exact map[string]string

	alarms, dropped, framesBad, alarmsLost int64
}

func newResult() *result {
	return &result{Metrics: make(map[string]metric), exact: make(map[string]string)}
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }
func (r *result) info(name string, v float64, unit string) {
	r.extra = append(r.extra, named{name, metric{v, unit}})
}
func (r *result) note(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }
func (r *result) fail(format string, a ...any) {
	r.Failed++
	r.note("FAIL "+format, a...)
}

// get returns a metric or an extra by name.
func (r *result) get(name string) (float64, bool) {
	if m, ok := r.Metrics[name]; ok {
		return m.Value, true
	}
	for _, e := range r.extra {
		if e.name == name {
			return e.Value, true
		}
	}
	return 0, false
}

func (r *result) finish() {
	if r.Attempted < 1 {
		r.Attempted = 1
		r.Failed = 1
	}
	r.Correct = r.Failed == 0
}

func (r *result) print(w io.Writer, title string) {
	fmt.Fprintf(w, "== %s: attempted %d, failed %d, failed_share %g\n", title, r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
	for _, n := range r.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-36s %16.6g %s\n", name, m.Value, m.Unit)
	}
	for _, e := range r.extra {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", e.name, e.Value, e.Unit)
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run one workload (figs4k, sweep80k, serve-churn, serve-growth) and print its result as JSON on the last line; empty: all four, then the traced pass")
		seed     = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 30, "how long one workload measures; sizes repetitions and phases")
		trace    = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics of an untraced run, 1 runs the traced pass and prints the per-layer metrics")
		sets     = fs.Int("sets", 1, "run this many back-to-back sets of the untraced workloads and fail when two sets disagree beyond a metric's bound")
		smoke    = fs.Bool("smoke", false, "tiny sizes, for the tier-1 test")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || *sets < 1 {
		return errors.New("-seconds must be >= 1, -trace 0 or 1, -sets >= 1")
	}
	if *workload != "" && !slices.Contains(workloadNames, *workload) {
		return fmt.Errorf("unknown workload %q (want one of %v)", *workload, workloadNames)
	}

	if *workload != "" {
		h, err := newHarness(ctx, *seconds, *smoke, out)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, environment(h.root, *seed, *seconds))
		fmt.Fprintf(out, "asppbench.build_s %.3f s (go build ./cmd/asppbench; depends on the build cache, in no other number)\n", h.buildSecs)
		var res *result
		title, catalogue := *workload, endToEnd
		if *trace == 0 {
			res, err = h.runWorkload(ctx, *workload, *seed)
		} else {
			title, catalogue = "traced pass", perLayer
			res, err = h.tracedPass(ctx, *seed)
		}
		if err != nil {
			return err
		}
		res.print(out, title)
		return emit(out, res, catalogue)
	}

	// Everything: the untraced sets, then one traced pass. Each run is a
	// process of its own, exactly as the benchmark's driver makes them:
	// peak_rss_mb is a process's high-water mark, and a child started by
	// a process that once held 800 MB reports at least that.
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	env := environment(root, *seed, *seconds)
	fmt.Fprintln(out, env)
	common := []string{"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds)}
	if *smoke {
		common = append(common, "-smoke")
	}
	all := make([]map[string]*result, *sets)
	failed := false
	for s := range all {
		all[s] = make(map[string]*result)
		for _, name := range workloadNames {
			res, err := child(ctx, out, append([]string{"-workload", name, "-trace", "0"}, common...)...)
			if err != nil {
				return fmt.Errorf("%s (set %d): %w", name, s+1, err)
			}
			all[s][name] = res
			failed = failed || !res.Correct
		}
	}
	if *sets > 1 && !compareSets(out, all) {
		failed = true
	}
	traced, err := child(ctx, out, append([]string{"-workload", workloadNames[0], "-trace", "1"}, common...)...)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	failed = failed || !traced.Correct
	if err := writeResults(filepath.Join(root, "bench", "out"), env, all, traced); err != nil {
		return err
	}
	if failed {
		return errors.New("failed operations or disagreeing sets: see the FAIL and DISAGREE lines above")
	}
	return nil
}

// child runs this program again with args, copies what it prints and
// parses the result object on its last line and the exact counts on the
// line before.
func child(ctx context.Context, out io.Writer, args ...string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	res := newResult()
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		last = sc.Text()
		switch rest, isExact := strings.CutPrefix(last, "exact "); {
		case isExact:
			if err := json.Unmarshal([]byte(rest), &res.exact); err != nil {
				fmt.Fprintln(out, last)
			}
		case !strings.HasPrefix(last, "{"):
			fmt.Fprintln(out, last)
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, err
	}
	if err := json.Unmarshal([]byte(last), res); err != nil {
		return nil, fmt.Errorf("last line is not a result object: %w", err)
	}
	return res, nil
}

// moduleRoot finds the checkout: the nearest directory at or above the
// working directory that holds go.mod.
func moduleRoot() (string, error) {
	root, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			return root, nil
		}
		parent := filepath.Dir(root)
		if parent == root {
			return "", errors.New("no go.mod above the working directory: run from a checkout of the repository")
		}
		root = parent
	}
}

// newHarness prepares bench/out and builds asppbench from source.
func newHarness(ctx context.Context, seconds float64, smoke bool, log io.Writer) (*harness, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	h := &harness{root: root, cwd: cwd, outDir: filepath.Join(root, "bench", "out"), seconds: seconds, scale: fullScale, log: log}
	if smoke {
		h.scale = smokeScale
	}
	if h.pinned, err = loadPinned(); err != nil {
		return nil, fmt.Errorf("bench/testdata/digests.json: %w", err)
	}
	if err := os.MkdirAll(h.outDir, 0o755); err != nil {
		return nil, err
	}
	h.asppbench = filepath.Join(h.outDir, "asppbench")
	t0 := time.Now()
	build := exec.CommandContext(ctx, "go", "build", "-o", h.asppbench, "./cmd/asppbench")
	build.Dir = root
	if msg, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/asppbench: %v\n%s", err, msg)
	}
	h.buildSecs = time.Since(t0).Seconds()
	return h, nil
}

// runWorkload runs one workload untraced.
func (h *harness) runWorkload(ctx context.Context, name string, seed int64) (*result, error) {
	var res *result
	var err error
	if spec, ok := batchSpecs[name]; ok {
		res, err = h.runBatch(ctx, spec, seed)
	} else {
		res, err = h.runServe(ctx, serveSpecs[name], seed, -1)
	}
	if err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

// emit prints the contract's result object as the last line: exactly the
// metrics the catalogue lists, each of which the run must have produced.
func emit(out io.Writer, res *result, catalogue []metricDef) error {
	line := result{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]metric, len(catalogue))}
	for _, def := range catalogue {
		m, ok := res.Metrics[def.Name]
		if !ok {
			return fmt.Errorf("the run produced no %s", def.Name)
		}
		if m.Unit != def.Unit {
			return fmt.Errorf("%s has unit %s, the catalogue says %s", def.Name, m.Unit, def.Unit)
		}
		line.Metrics[def.Name] = m
	}
	exact, err := json.Marshal(res.exact)
	if err != nil {
		return err
	}
	data, err := json.Marshal(line) // only the contract's four keys are exported
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "exact %s\n%s\n", exact, data)
	return err
}

// compareSets prints, per end-to-end metric and workload, the minimum,
// median and maximum over the sets and their relative spread against the
// metric's bound, and reports whether every pair of sets agrees within
// it and every exact count repeated.
func compareSets(out io.Writer, all []map[string]*result) bool {
	ok := true
	fmt.Fprintf(out, "== %d sets\n%-14s %-18s %12s %12s %12s %8s %7s\n", len(all), "workload", "metric", "min", "median", "max", "spread", "bound")
	for _, name := range workloadNames {
		for _, def := range endToEnd {
			var vals []float64
			for _, set := range all {
				if v, found := set[name].get(def.Name); found {
					vals = append(vals, v)
				}
			}
			asc := sorted(vals)
			rel := (asc[len(asc)-1] - asc[0]) / median(vals)
			verdict := ""
			if rel > def.Bound {
				verdict = "  DISAGREE"
				ok = false
			}
			fmt.Fprintf(out, "%-14s %-18s %12.6g %12.6g %12.6g %7.1f%% %6.0f%%%s\n", name, def.Name,
				asc[0], median(vals), asc[len(asc)-1], 100*rel, 100*def.Bound, verdict)
		}
		first := all[0][name]
		for _, set := range all[1:] {
			for k, v := range first.exact {
				if set[name].exact[k] != v {
					fmt.Fprintf(out, "%-14s %-18s differs between sets: %s vs %s  DISAGREE\n", name, k, v, set[name].exact[k])
					ok = false
				}
			}
		}
	}
	return ok
}

// writeResults stores the whole run beside the trace.
func writeResults(dir string, env envInfo, all []map[string]*result, traced *result) error {
	type doc struct {
		Env      envInfo                        `json:"env"`
		Sets     []map[string]map[string]metric `json:"sets"`
		PerLayer map[string]metric              `json:"per_layer"`
	}
	d := doc{Env: env, PerLayer: traced.Metrics}
	for _, set := range all {
		m := make(map[string]map[string]metric)
		for name, res := range set {
			m[name] = res.Metrics
		}
		d.Sets = append(d.Sets, m)
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "results.json"), append(data, '\n'), 0o644)
}
