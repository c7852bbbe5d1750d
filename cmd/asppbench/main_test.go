package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aspp"
)

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
		want string
	}{
		{exp: "compare", want: "aspp-interception"},
		{exp: "defense", want: "greedy"},
		{exp: "inference", want: "classified_links"},
		{exp: "mitigation", want: "deploy_frac"},
	}
	for _, tt := range tests {
		t.Run(tt.exp, func(t *testing.T) {
			var sb strings.Builder
			if err := run(context.Background(), []string{"-exp", tt.exp, "-n", "400"}, &sb); err != nil {
				t.Fatalf("run(%s): %v", tt.exp, err)
			}
			if !strings.Contains(sb.String(), tt.want) {
				t.Errorf("output missing %q:\n%s", tt.want, sb.String())
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

func TestRunShardFlagValidation(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{"-exp", "fig9", "-n", "400", "-shards", "-2"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Errorf("-shards -2: want a shard-count error, got %v", err)
	}
	for _, bad := range []string{"0", "-5", "x", "12Q", "M", "9223372036854775807K"} { // the last overflows n * 1024
		err := run(context.Background(), []string{"-exp", "fig9", "-n", "400", "-mem-budget", bad}, &sb)
		if err == nil || !strings.Contains(err.Error(), "-mem-budget") {
			t.Errorf("-mem-budget %q: want a budget error, got %v", bad, err)
		}
	}
	cases := map[string]int64{"65536": 65536, "4k": 4 << 10, "512M": 512 << 20, "2G": 2 << 30}
	for in, want := range cases {
		if got, err := parseMemBudget(in); err != nil || got != want {
			t.Errorf("parseMemBudget(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	if got, err := parseMemBudget(""); err != nil || got != 0 {
		t.Errorf("parseMemBudget(\"\") = %d, %v; want 0 (no budget)", got, err)
	}
}

// sweepExps are the experiments whose TSV the runner's tuning flags must
// never move: a pair sweep, a λ sweep, fig11 (two λ sweeps plus the
// sibling leg on the reference engine) and the tier matrix.
const sweepExps = "fig7,fig9,fig11,susceptibility"

func runSweepExps(t *testing.T, extra ...string) string {
	t.Helper()
	var sb strings.Builder
	args := append([]string{"-exp", sweepExps, "-n", "400"}, extra...)
	if err := run(context.Background(), args, &sb); err != nil {
		t.Fatalf("%v: %v", extra, err)
	}
	return sb.String()
}

// TestRunShardByteIdentical pins the tentpole acceptance contract at the
// CLI boundary: sweep TSVs must be byte-identical to the default-flag run
// at any shard count and under a per-shard memory budget.
func TestRunShardByteIdentical(t *testing.T) {
	want := runSweepExps(t)
	for _, extra := range [][]string{
		{"-shards", "1"}, {"-shards", "2"}, {"-shards", "7"},
		{"-shards", "1", "-mem-budget", "64k"},
		{"-shards", "7", "-mem-budget", "64k"},
		{"-shards", "32", "-mem-budget", "64k"},
		{"-mem-budget", "512M"},
	} {
		if got := runSweepExps(t, extra...); got != want {
			t.Errorf("%v output differs from default flags:\n got: %s\nwant: %s", extra, got, want)
		}
	}
}

// TestRunCountersOnDefaultFlags: -counters reports the memory gauges on a
// default-flag run (they used to read 0 unless -shards was set), and
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
	for _, gauge := range []string{"scratch_bytes", "cache_bytes", "csr_bytes"} {
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
// with -counters the reusing experiment reports none.
func TestRunSharesIdenticalWork(t *testing.T) {
	const exps = "fig5,fig6,fig13,fig14,inference"
	base := []string{"-n", "400", "-pairs", "15", "-counters"}
	var together strings.Builder
	if err := run(context.Background(), append([]string{"-exp", exps}, base...), &together); err != nil {
		t.Fatalf("run(%s): %v", exps, err)
	}
	got := sections(together.String())
	noWork := new(aspp.Counters).Snapshot().String()
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
		if exp == "fig6" || exp == "fig14" { // all they compute was computed before them
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
// 315 baselines and 331 attack legs, the 200 effective and the 131 that
// captured no one — and Fig. 14 after it adds none. In the other order Fig. 14
// runs the sweep, all columns of it, and both sections read the same.
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
	for _, want := range []string{"prop_base=315 ", "prop_delta=331 ", "skip_ineffective=131 "} {
		if !strings.Contains(counters, want) {
			t.Errorf("fig13 counters lack %q: %s", want, counters)
		}
	}
	if _, counters, _ := strings.Cut(got["fig14"], "# counters: "); strings.TrimSpace(counters) != new(aspp.Counters).Snapshot().String() {
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

// TestFig12NeedsTwoStubs: one multihomed stub besides the content stub is
// a named error, not an endless redraw.
func TestFig12NeedsTwoStubs(t *testing.T) {
	path := writeTopo(t, strings.Replace(fig12Topo, "10|102|-1\n11|102|-1\n", "", 1))
	var sb strings.Builder
	err := run(context.Background(), []string{"-exp", "fig12", "-topo", path}, &sb)
	if err == nil || !strings.Contains(err.Error(), "needs two multihomed stubs") {
		t.Fatalf("got %v, want the two-stubs error", err)
	}
}
