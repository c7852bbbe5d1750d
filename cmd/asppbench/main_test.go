package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"aspp/internal/experiment"
	"aspp/internal/obs"
	"aspp/internal/topology"
)

// TestRunProfileErrors: a profile that cannot be written fails the run, CPU
// and heap profile alike, and a writable one is written.
func TestRunProfileErrors(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing", "p.prof")
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		var sb strings.Builder
		if err := run(context.Background(), []string{"-exp", "fig1", "-n", "300", flag, missing}, &sb); err == nil {
			t.Errorf("%s in a missing directory: the run succeeded", flag)
		}
		path := filepath.Join(dir, flag[1:]+".prof")
		if err := run(context.Background(), []string{"-exp", "fig1", "-n", "300", flag, path}, &sb); err != nil {
			t.Fatalf("%s %s: %v", flag, path, err)
		}
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: profile not written (%v)", flag, err)
		}
	}
}

func TestRunSingleExperiments(t *testing.T) {
	// Each experiment must run on a small topology and emit its header.
	tests := []struct {
		exp  string
		want string
	}{
		{exp: "fig1", want: "69.171.224.0/20"},
		{exp: "table1", want: "traceroute"},
		{exp: "fig5", want: "frac_prefixes_with_prepending"},
		{exp: "fig6", want: "prepend_count"},
		{exp: "fig7", want: "pct_after"},
		{exp: "fig8", want: "pct_after"},
		{exp: "fig9", want: "lambda"},
		{exp: "fig10", want: "lambda"},
		{exp: "fig11", want: "pct_violate_policy"},
		{exp: "fig12", want: "pct_violate_policy"},
		{exp: "fig13", want: "pct_detected"},
		{exp: "fig14", want: "frac_polluted_before_detection"},
	}
	for _, tt := range tests {
		t.Run(tt.exp, func(t *testing.T) {
			var sb strings.Builder
			err := run(context.Background(), []string{"-exp", tt.exp, "-n", "400", "-pairs", "20"}, &sb)
			if err != nil {
				t.Fatalf("run(%s): %v", tt.exp, err)
			}
			if !strings.Contains(sb.String(), tt.want) {
				t.Errorf("output missing %q:\n%s", tt.want, sb.String())
			}
		})
	}
}

func TestRunAll(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "all", "-n", "400", "-pairs", "15"}, &sb); err != nil {
		t.Fatalf("run(all): %v", err)
	}
	out := sb.String()
	// Every registered experiment has a section, in registry order.
	at := 0
	for _, e := range registry {
		i := strings.Index(out[at:], "### "+e.name+"\n")
		if i < 0 {
			t.Fatalf("section %s missing or out of order", e.name)
		}
		at += i
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{"-exp", "fig9,fig99", "-n", "400"}, &sb)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if !strings.Contains(err.Error(), `"fig99"`) {
		t.Errorf("error does not name the unknown experiment: %v", err)
	}
	for _, e := range registry {
		if !strings.Contains(err.Error(), e.name) {
			t.Errorf("error does not offer %s: %v", e.name, err)
		}
	}
}

// TestHelpListsEveryExperiment: the -exp help is derived from the registry,
// so an experiment cannot be registered and stay undocumented.
func TestHelpListsEveryExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-h"}, &sb); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
	for _, e := range registry {
		if !strings.Contains(sb.String(), e.name) {
			t.Errorf("-h does not list %s:\n%s", e.name, sb.String())
		}
	}
}

func TestRunCommaList(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "fig9, fig12", "-n", "400"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "### fig9") || !strings.Contains(sb.String(), "### fig12") {
		t.Error("comma list not honored")
	}
}

func TestRunExtensionExperiments(t *testing.T) {
	tests := []struct {
		exp  string
		want []string
	}{
		{exp: "compare", want: []string{"aspp-interception"}},
		{exp: "defense", want: []string{"top-degree", "random", "victim-cone", "greedy"}},
		{exp: "inference", want: []string{"classified_links"}},
		{exp: "mitigation", want: []string{"deploy_frac"}},
	}
	for _, tt := range tests {
		t.Run(tt.exp, func(t *testing.T) {
			var sb strings.Builder
			if err := run(context.Background(), []string{"-exp", tt.exp, "-n", "400"}, &sb); err != nil {
				t.Fatalf("run(%s): %v", tt.exp, err)
			}
			for _, want := range tt.want {
				if !strings.Contains(sb.String(), want) {
					t.Errorf("output missing %q:\n%s", want, sb.String())
				}
			}
		})
	}
}

func TestRunSusceptibility(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "susceptibility", "-n", "400"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "victim_tier") {
		t.Errorf("missing header:\n%s", sb.String())
	}
}

func TestRunOutDir(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "fig9,fig12", "-n", "400", "-out", dir}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, name := range []string{"fig9.tsv", "fig12.tsv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s not written: %v", name, err)
		}
		if !strings.Contains(string(data), "lambda") {
			t.Errorf("%s missing header", name)
		}
	}
}

// TestRunBatchFlagValidation: neither the lane width nor the engine is a
// caller's choice any more — both flags are unknown.
func TestRunBatchFlagValidation(t *testing.T) {
	for _, flag := range [][]string{{"-batch", "8"}, {"-engine", "full"}} {
		var sb strings.Builder
		err := run(context.Background(), append([]string{"-exp", "fig9", "-n", "400"}, flag...), &sb)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+flag[0]) {
			t.Errorf("%v: want an unknown-flag error, got %v", flag, err)
		}
	}
}

// TestRunShardFlagValidation: the shard count follows GOMAXPROCS and a
// shard holds one baseline, so neither is a flag any more.
func TestRunShardFlagValidation(t *testing.T) {
	for _, flag := range [][]string{{"-shards", "2"}, {"-mem-budget", "512M"}} {
		var sb strings.Builder
		err := run(context.Background(), append([]string{"-exp", "fig9", "-n", "400"}, flag...), &sb)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+flag[0]) {
			t.Errorf("%v: want an unknown-flag error, got %v", flag, err)
		}
	}
}

// sweepExps are the experiments whose TSV the shard count must never
// move: a pair sweep, a λ sweep, fig11 (two λ sweeps plus the
// sibling leg on the reference engine) and the tier matrix.
const sweepExps = "fig7,fig9,fig11,susceptibility"

func runSweepExps(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", sweepExps, "-n", "400"}, &sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestRunShardByteIdentical pins the tentpole acceptance contract at the
// CLI boundary: GOMAXPROCS is the shard count's only input, and sweep TSVs
// must be byte-identical to the default run at one shard and at seven.
func TestRunShardByteIdentical(t *testing.T) {
	want := runSweepExps(t)
	for _, procs := range []int{1, 7} {
		withGOMAXPROCS(t, procs)
		if got := runSweepExps(t); got != want {
			t.Errorf("GOMAXPROCS %d: output differs from the default run:\n got: %s\nwant: %s", procs, got, want)
		}
	}
}

// withGOMAXPROCS sets GOMAXPROCS to procs until the test ends.
func withGOMAXPROCS(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestRunCountersOnDefaultFlags: -counters reports the memory gauges on a
// default-flag run (they used to read 0 unless -shards was set) and the
// rows fig7's delta legs examined, and
// fig11's counters include the sibling leg's 8 baselines + 8 full-kernel
// attack legs on top of the two plain sweeps' 16 + 16. A baseline is a
// propagation or — another λ of a victim its shard already holds — a shift
// counted as a hit; how the 24 split depends on the shard count, which
// default flags take from GOMAXPROCS.
func TestRunCountersOnDefaultFlags(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "fig7,fig11", "-n", "400", "-counters"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	var lines []string
	for _, l := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(l, "# counters: ") {
			lines = append(lines, l)
		}
	}
	if len(lines) != 2 {
		t.Fatalf("got %d counter lines, want 2:\n%s", len(lines), sb.String())
	}
	for _, gauge := range []string{"scratch_bytes", "cache_bytes", "csr_bytes", "cone_rows"} {
		if strings.Contains(lines[0], " "+gauge+"=0 ") {
			t.Errorf("fig7: %s reads 0 on default flags: %s", gauge, lines[0])
		}
	}
	for _, want := range []string{"prop_full=8 ", "prop_delta=16 "} {
		if !strings.Contains(lines[1], want) {
			t.Errorf("fig11 counters miss %q (sibling leg uncounted?): %s", want, lines[1])
		}
	}
	counter := func(name string) (v int) {
		_, rest, _ := strings.Cut(lines[1], " "+name+"=")
		fmt.Sscanf(rest, "%d", &v)
		return v
	}
	if base, hit, miss := counter("prop_base"), counter("cache_hit"), counter("cache_miss"); base != miss || base+hit != 24 {
		t.Errorf("fig11: prop_base=%d cache_hit=%d cache_miss=%d, want 24 baselines, every miss a propagation: %s", base, hit, miss, lines[1])
	}
}

// TestRunDefenseCounters: defense's attack draws report their legs (its
// counter line used to read all zeros).
func TestRunDefenseCounters(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "defense", "-n", "400", "-counters"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	_, line, _ := strings.Cut(sb.String(), "# counters: ")
	var delta int
	if _, rest, _ := strings.Cut(line, " prop_delta="); rest != "" {
		fmt.Sscanf(rest, "%d", &delta)
	}
	if delta <= 0 {
		t.Errorf("defense reports no attack legs: %s", line)
	}
}

// TestRunDefenseStrategies: defense prints one row per placement strategy,
// each with a detection percentage in [0, 100].
func TestRunDefenseStrategies(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "defense", "-n", "500"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	body := sections(sb.String())["defense"]
	if !strings.HasPrefix(body, "strategy\tpct_detected\n") {
		t.Fatalf("defense header missing:\n%s", body)
	}
	rows := make(map[string]float64)
	for _, line := range strings.Split(body, "\n")[1:] {
		name, pct, ok := strings.Cut(line, "\t")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(pct, "%g", &v); err != nil || v < 0 || v > 100 {
			t.Errorf("row %q: bad percentage", line)
		}
		if _, dup := rows[name]; dup {
			t.Errorf("strategy %q printed twice", name)
		}
		rows[name] = v
	}
	for _, want := range []string{"top-degree", "random", "victim-cone", "greedy"} {
		if _, ok := rows[want]; !ok {
			t.Errorf("defense output missing strategy %q:\n%s", want, body)
		}
	}
	if len(rows) != 4 {
		t.Errorf("got %d strategy rows, want 4:\n%s", len(rows), body)
	}
}

// sections splits asppbench output into its "### name" sections.
func sections(out string) map[string]string {
	m := make(map[string]string)
	for _, sec := range strings.Split(out, "### ")[1:] {
		name, body, _ := strings.Cut(sec, "\n")
		m[name] = body
	}
	return m
}

// TestRunSharesIdenticalWork: fig5/fig6 share one survey, fig13/fig14 one
// detection run and fig13/inference one relationship inference. A section
// reads the same whether its experiment ran the work or reused it, and
// with -counters the reusing experiment reports none, though alone it
// reports some.
func TestRunSharesIdenticalWork(t *testing.T) {
	const exps = "fig5,fig6,fig13,fig14,inference"
	base := []string{"-n", "400", "-pairs", "15", "-counters"}
	var together strings.Builder
	if err := run(context.Background(), append([]string{"-exp", exps}, base...), &together); err != nil {
		t.Fatalf("run(%s): %v", exps, err)
	}
	got := sections(together.String())
	noWork := new(obs.Counters).Snapshot().String()
	for _, exp := range strings.Split(exps, ",") {
		var alone strings.Builder
		if err := run(context.Background(), append([]string{"-exp", exp}, base...), &alone); err != nil {
			t.Fatalf("run(%s): %v", exp, err)
		}
		wantData, wantCounters, _ := strings.Cut(sections(alone.String())[exp], "# counters: ")
		data, counters, _ := strings.Cut(got[exp], "# counters: ")
		if data != wantData {
			t.Errorf("%s differs between -exp %s and -exp %s:\n got: %s\nwant: %s", exp, exps, exp, data, wantData)
		}
		if exp == "fig6" || exp == "fig14" || exp == "inference" { // all they compute was computed before them
			if strings.TrimSpace(wantCounters) == noWork {
				t.Errorf("%s alone reports no work", exp)
			}
			wantCounters = noWork + "\n\n"
		}
		if counters != wantCounters {
			t.Errorf("%s counters in -exp %s: %swant: %s", exp, exps, counters, wantCounters)
		}
	}
}

// TestFig13IsOneSweep: the three columns of Fig. 13 read one attack draw, so
// its -counters line is every leg simulated for it — at the default topology
// 524 baselines (the relationship inference's 200 origins, and 324 for the
// draw: a shard re-propagates a victim a later draw round brings back after
// another) and 331 attack legs, the 200 effective and the 131 that
// captured no one, and 3,759,940 detection pairs (20.7M when every count
// folded its window from scratch, 6,329,652 when a top-degree column's pass
// folded every trigger it met, 5,147,562 while every accusing trigger's rows
// ran on until an alarm named the attacker instead of asking the candidate
// witnesses) — and Fig. 14 after it adds none. In the
// other order Fig. 14 runs the sweep, all columns of it, and both sections
// read the same.
func TestFig13IsOneSweep(t *testing.T) {
	var sb, swapped strings.Builder
	if err := run(context.Background(), []string{"-exp", "fig13,fig14", "-n", "4000", "-seed", "1", "-counters"}, &sb); err != nil {
		t.Fatal(err)
	}
	got := sections(sb.String())
	data, counters, _ := strings.Cut(got["fig13"], "# counters: ")
	if !strings.Contains(data, "# 200 effective attacks") {
		t.Errorf("fig13 did not evaluate 200 attacks:\n%s", data)
	}
	for _, want := range []string{"prop_base=524 ", "prop_delta=331 ", "skip_ineffective=131 ", "detect_pairs=3759940 "} {
		if !strings.Contains(counters, want) {
			t.Errorf("fig13 counters lack %q: %s", want, counters)
		}
	}
	if _, counters, _ := strings.Cut(got["fig14"], "# counters: "); strings.TrimSpace(counters) != new(obs.Counters).Snapshot().String() {
		t.Errorf("fig14 after fig13 reports work: %s", counters)
	}
	if err := run(context.Background(), []string{"-exp", "fig14,fig13", "-n", "4000", "-seed", "1"}, &swapped); err != nil {
		t.Fatal(err)
	}
	for name, body := range sections(swapped.String()) {
		if data, _, _ := strings.Cut(got[name], "# counters: "); strings.TrimSpace(body) != strings.TrimSpace(data) {
			t.Errorf("%s differs when fig14 runs the sweep:\n got: %s\nwant: %s", name, body, data)
		}
	}
}

// TestCountersCoverMitigationAndInference: the cautious-adoption sweeps and
// the relationship inference record their propagations, so neither
// -counters line reads all zero — two sweeps of one baseline and seven
// deployment fractions each, and one propagation per sampled origin.
func TestCountersCoverMitigationAndInference(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "mitigation,inference", "-n", "600", "-counters"}, &sb); err != nil {
		t.Fatal(err)
	}
	got := sections(sb.String())
	for exp, want := range map[string]string{"mitigation": "prop_base=2 prop_full=14 ", "inference": "prop_base=200 prop_full=0 "} {
		if _, counters, _ := strings.Cut(got[exp], "# counters: "); !strings.HasPrefix(counters, want) {
			t.Errorf("%s counters: %s, want them to start %q", exp, counters, want)
		}
	}
}

// TestDetectionFoldPins pins, at the default topology and seed, the pairs
// detectRow compares where every Fold has one end: compare's one whole-list
// window per attack (294,525) and Fig. 13's random column, one window per
// count (1,880,120: the two-column sweep's count less the top-degree
// column's). A row that ends early counts whole, so with one end only the
// candidate witnesses Attributed is asked of add pairs: none in compare, 810
// in the random column (1,879,310 before). A trigger skip that misses a
// trigger that can change nothing, or drops one that can, moves them; Fig.
// 13's total, where the top-degree columns fold all their counts at once, is
// TestFig13IsOneSweep's.
func TestDetectionFoldPins(t *testing.T) {
	ctx := context.Background()
	var sb strings.Builder
	if err := run(ctx, []string{"-exp", "compare", "-n", "4000", "-seed", "1", "-counters"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "detect_pairs=294525 ") {
		t.Errorf("compare counters lack detect_pairs=294525:\n%s", sb.String())
	}
	g, err := topology.Generate(topology.DefaultGenConfig(4000))
	if err != nil {
		t.Fatal(err)
	}
	pairs := func(cols ...experiment.DetectionColumn) int64 {
		c := new(obs.Counters)
		cfg := experiment.DefaultDetectionConfig()
		cfg.LatencyMonitors = 30 // asppbench's coverage-matched count at n = 4000
		cfg.Columns, cfg.Counters = cols, c
		if _, err := experiment.RunDetectionCtx(ctx, g, cfg); err != nil {
			t.Fatal(err)
		}
		return c.Snapshot().DetectPairs
	}
	top := experiment.DetectionColumn{Placement: experiment.MonitorsTopDegree}
	if got := pairs(top, experiment.DetectionColumn{Placement: experiment.MonitorsRandom}) - pairs(top); got != 1880120 {
		t.Errorf("random column compares %d pairs, want 1880120", got)
	}
}

// fig12Topo is a hand graph with three multihomed stubs: 100 (the lowest
// ASN, so the content stub) and the small-vs-small pool {101, 102}.
const fig12Topo = "1|2|0\n1|10|-1\n2|11|-1\n10|100|-1\n11|100|-1\n10|101|-1\n11|101|-1\n10|102|-1\n11|102|-1\n"

func writeTopo(t *testing.T, serial2 string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "topo.serial2")
	if err := os.WriteFile(path, []byte(serial2), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFig12RedrawsUntilDistinct: with a pool of two, half the seeds draw
// the attacker again as victim and a quarter used to draw it a third time
// on the single retry, killing the sweep with "victim and attacker must
// differ". Every seed must now run.
func TestFig12RedrawsUntilDistinct(t *testing.T) {
	path := writeTopo(t, fig12Topo)
	for seed := 1; seed <= 40; seed++ {
		var sb strings.Builder
		if err := run(context.Background(), []string{"-exp", "fig12", "-topo", path, "-seed", fmt.Sprint(seed)}, &sb); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !strings.Contains(sb.String(), "(victim AS101, attacker AS102)") && !strings.Contains(sb.String(), "(victim AS102, attacker AS101)") {
			t.Fatalf("seed %d: pair not drawn from the pool:\n%s", seed, sb.String())
		}
	}
}

// oneStubTopo is fig12Topo without AS102: fig12 fails on it, and so does
// fig7, which finds only 2 usable tier-1 pairs of the 80 it wants.
var oneStubTopo = strings.Replace(fig12Topo, "10|102|-1\n11|102|-1\n", "", 1)

// TestFig12NeedsTwoStubs: one multihomed stub besides the content stub is
// a named error, not an endless redraw.
func TestFig12NeedsTwoStubs(t *testing.T) {
	path := writeTopo(t, oneStubTopo)
	var sb strings.Builder
	err := run(context.Background(), []string{"-exp", "fig12", "-topo", path}, &sb)
	if err == nil || !strings.Contains(err.Error(), "needs two multihomed stubs") {
		t.Fatalf("got %v, want the two-stubs error", err)
	}
}

// runOut runs asppbench and returns its stdout and the files it wrote to
// -out, by name.
func runOut(t *testing.T, args ...string) (string, map[string]string) {
	t.Helper()
	dir := t.TempDir()
	var sb strings.Builder
	if err := run(context.Background(), append(args, "-out", dir), &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String(), readDir(t, dir)
}

func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// TestRunConcurrentMatchesSerial: experiments run side by side print what
// they print one at a time. Without -counters, -exp all is byte-identical at
// GOMAXPROCS 1 and 4, -out files included, and equals the single-experiment
// runs concatenated. With -counters the default shard counts and the
// per-worker gauges follow GOMAXPROCS (and a group's later members report
// nothing), so there each section is held to a run of its group alone at the
// same GOMAXPROCS: one task, nothing beside it.
func TestRunConcurrentMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, seed := range []string{"1", "7"} {
		base := []string{"-n", "400", "-pairs", "15", "-seed", seed}
		all := append([]string{"-exp", "all"}, base...)
		runtime.GOMAXPROCS(1)
		serial, serialFiles := runOut(t, all...)
		runtime.GOMAXPROCS(4)
		concurrent, concurrentFiles := runOut(t, all...)
		if concurrent != serial {
			t.Errorf("seed %s: -exp all differs between GOMAXPROCS 1 and 4:\n got: %s\nwant: %s", seed, concurrent, serial)
		}
		if !reflect.DeepEqual(concurrentFiles, serialFiles) || len(serialFiles) != len(registry) {
			t.Errorf("seed %s: -out files differ between GOMAXPROCS 1 and 4, or miss an experiment", seed)
		}
		var singles strings.Builder
		for _, e := range registry {
			out, _ := runOut(t, append([]string{"-exp", e.name}, base...)...)
			singles.WriteString(out)
		}
		if concurrent != singles.String() {
			t.Errorf("seed %s: -exp all is not the single-experiment runs concatenated:\n got: %s\nwant: %s", seed, concurrent, singles.String())
		}

		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			got, _ := runOut(t, append(all, "-counters")...)
			groups := map[string][]string{}
			var order []string
			for _, e := range registry {
				key := cmp.Or(e.group, e.name)
				if groups[key] == nil {
					order = append(order, key)
				}
				groups[key] = append(groups[key], e.name)
			}
			gotSections := sections(got)
			for _, key := range order {
				alone, _ := runOut(t, append([]string{"-exp", strings.Join(groups[key], ",")}, append(base, "-counters")...)...)
				for name, want := range sections(alone) {
					if gotSections[name] != want {
						t.Errorf("seed %s GOMAXPROCS %d: %s differs from its group run alone:\n got: %s\nwant: %s", seed, procs, name, gotSections[name], want)
					}
				}
			}
		}
	}
}

// TestRunConcurrentErrorContract: a failing experiment ends the run as it
// did when experiments ran one at a time. The lowest failing one in run
// order is reported, even though fig7 after it fails too; the output is
// every section before it, then its header and what it wrote; nothing after
// it is printed or written to -out; and no goroutine outlives run. A ctx
// cancelled mid-run returns context.Canceled.
func TestRunConcurrentErrorContract(t *testing.T) {
	path := writeTopo(t, oneStubTopo)
	fig9, _ := runOut(t, "-exp", "fig9", "-topo", path)
	dir := t.TempDir()
	before := runtime.NumGoroutine()
	var sb strings.Builder
	err := run(context.Background(), []string{"-exp", "fig9,fig12,fig10,fig7", "-topo", path, "-out", dir}, &sb)
	if err == nil || !strings.HasPrefix(err.Error(), "fig12: ") {
		t.Errorf("error %v, want fig12's", err)
	}
	if want := fig9 + "### fig12\n"; sb.String() != want {
		t.Errorf("stdout:\n%s\nwant:\n%s", sb.String(), want)
	}
	if files := readDir(t, dir); len(files) != 1 || files["fig9.tsv"] == "" {
		t.Errorf("-out holds %d files, want fig9.tsv alone", len(files))
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("%d goroutines after run, %d before", n, before)
	}

	// fig13 takes a few hundred ms at n=4000; the writer cancels the run
	// when fig1's section arrives.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err = run(ctx, []string{"-exp", "fig1,fig13"}, cancelOnWrite(cancel))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled mid-run: %v, want context.Canceled", err)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("%d goroutines after the cancelled run, %d before", n, before)
	}
}

type cancelOnWrite context.CancelFunc

func (c cancelOnWrite) Write(p []byte) (int, error) {
	c()
	return len(p), nil
}
