package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/collector"
	"aspp/internal/core"
	"aspp/internal/detect"
	"aspp/internal/experiment"
	"aspp/internal/topology"
)

func TestRunSelftest(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{
		"-selftest", "-n", "500", "-events", "30", "-updates", "20000", "-shards", "2", "-counters",
	}, &sb)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"selftest:", "updates/sec", "p50", "p99", "0 dropped", "counters:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunBadInputs(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), nil, &sb); err == nil {
		t.Error("no mode accepted")
	}
	if err := run(context.Background(), []string{"-selftest", "-policy", "yolo"}, &sb); err == nil {
		t.Error("bad policy accepted")
	}
	if err := run(context.Background(), []string{"-selftest", "-monitors", "bogus,list"}, &sb); err == nil {
		t.Error("bad monitors accepted")
	}
	if err := run(context.Background(), []string{"-selftest", "-n", "300", "-monitors", "top0"}, &sb); err == nil || !strings.Contains(err.Error(), "K >= 1") {
		t.Errorf("-monitors top0: err %v, want the topK message", err)
	}
	if err := run(context.Background(), []string{"-selftest", "-batch", "512", "-depth", "16"}, &sb); err == nil {
		t.Error("batch > depth accepted")
	}
	if err := run(context.Background(), []string{"-selftest", "-topo", "/nonexistent"}, &sb); err == nil {
		t.Error("missing -topo file accepted")
	}
}

// TestRunBannerReportsRingCapacity: the daemon's banner prints the ring's
// power-of-two capacity, not the -depth asked for.
func TestRunBannerReportsRingCapacity(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the daemon prints its banner, then sees the cancelled context and returns
	var sb strings.Builder
	err := run(ctx, []string{"-listen", "127.0.0.1:0", "-n", "300", "-shards", "1", "-depth", "5000"}, &sb)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run: %v, want context.Canceled\n%s", err, sb.String())
	}
	if out := sb.String(); !strings.Contains(out, "1 shards × depth 8192,") {
		t.Fatalf("banner does not report the 8192-slot ring:\n%s", out)
	}
}

// TestRunReplayBadInputs: -replay refuses a missing file, a malformed line
// (naming it), and an empty or unparsable monitor list.
func TestRunReplayBadInputs(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-replay", "/nonexistent", "-n", "300"}, &sb); err == nil {
		t.Error("missing -replay file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.log")
	if err := os.WriteFile(bad, []byte("A|1|AS5|10.0.0.0/8|5 1\nnot an update\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-replay", bad, "-n", "300"}, &sb); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("bad -replay line: err %v, want one naming line 2", err)
	}
	if err := run(context.Background(), []string{"-replay", bad, "-n", "300", "-monitors", ""}, &sb); err == nil {
		t.Error("-replay with no monitors accepted")
	}
	if err := run(context.Background(), []string{"-replay", bad, "-n", "300", "-monitors", "bogus"}, &sb); err == nil {
		t.Error("-replay with a bad monitor list accepted")
	}
}

func TestParseMonitorsSpecs(t *testing.T) {
	var sb strings.Builder
	// Explicit ASN list goes through the full selftest path.
	err := run(context.Background(), []string{
		"-selftest", "-n", "400", "-events", "20", "-updates", "5000", "-monitors", "top10",
	}, &sb)
	if err != nil {
		t.Fatalf("top10 monitors: %v\n%s", err, sb.String())
	}
}

// writeStream writes ups in the text format asppsim -updates-out writes.
func writeStream(t *testing.T, path string, ups []bgp.Update) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	for _, u := range ups {
		if err := bgp.WriteUpdateText(w, u); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// attackStream is what asppsim -updates-out writes for its default attack
// (the second tier-1 strips the first's λ=3 prepends), on prefix: the
// monitors' steady-state table, then the transition the attack causes.
// Times start after t0.
func attackStream(t *testing.T, g *topology.Graph, monitors []bgp.ASN, prefix netip.Prefix, t0 uint64) (snap, trans []bgp.Update) {
	t.Helper()
	victim, err := experiment.PickTier1ByDegree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := experiment.PickTier1ByDegree(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	im, err := core.Simulate(g, core.Scenario{Victim: victim, Attacker: attacker, Prepend: 3, KeepPrepend: 1})
	if err != nil {
		t.Fatal(err)
	}
	if snap, err = collector.StreamTransition(nil, im.Baseline(), prefix, monitors, t0); err != nil {
		t.Fatal(err)
	}
	if trans, err = collector.StreamTransition(im.Baseline(), im.Attacked(), prefix, monitors, t0+uint64(len(snap))); err != nil {
		t.Fatal(err)
	}
	return snap, trans
}

// replay runs asppserve -replay on path and returns its output.
func replay(t *testing.T, path string, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(context.Background(), append([]string{"-replay", path}, args...), &sb); err != nil {
		t.Fatalf("run -replay %v: %v\n%s", args, err, sb.String())
	}
	return sb.String()
}

// TestRunReplay: replay is the daemon's detector. On a file that mixes the
// daemon's default churn corpus with an attack on another prefix, its
// alarms are a serial Detector's over the same file, its High alarms are
// what a Detector without relationships raises, and its output moves
// neither with -shards nor when the same graph comes from a -topo file.
func TestRunReplay(t *testing.T) {
	dir := t.TempDir()
	g, err := topology.Generate(topology.DefaultGenConfig(2000)) // the daemon's -n 2000 -seed 1
	if err != nil {
		t.Fatal(err)
	}
	monitors, err := collector.ParseMonitors("top40", g)
	if err != nil {
		t.Fatal(err)
	}
	churn, err := collector.ChurnCorpus(g, monitors, 60, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, trans := attackStream(t, g, monitors, netip.MustParsePrefix("10.0.0.0/16"), uint64(len(churn)))
	ups := slices.Concat(snap, churn, trans)
	feed := filepath.Join(dir, "feed.log")
	writeStream(t, feed, ups)
	topo := filepath.Join(dir, "topo.txt")
	f, err := os.Create(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.WriteSerial2(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	out := replay(t, feed, "-shards", "1")
	if out3 := replay(t, feed, "-shards", "3"); out3 != out {
		t.Fatalf("-shards 3 output differs from -shards 1")
	}
	if outTopo := replay(t, feed, "-shards", "3", "-topo", topo); outTopo != out {
		t.Fatalf("-topo output differs from the generated graph's")
	}

	var want, wantHigh []string
	full, bare := detect.NewDetector(monitors, g), detect.NewDetector(monitors, nil)
	for _, u := range ups {
		for _, a := range full.Observe(u) {
			want = append(want, fmt.Sprintf("%v %v", u.Prefix, a))
		}
		for _, a := range bare.Observe(u) {
			wantHigh = append(wantHigh, fmt.Sprintf("%v %v", u.Prefix, a))
		}
	}
	if len(wantHigh) == 0 || len(want) == len(wantHigh) {
		t.Fatalf("file raises %d alarms, %d high: want both confidence classes", len(want), len(wantHigh))
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	summary := fmt.Sprintf("%d updates, %d alarms (%d high), 0 dropped", len(ups), len(want), len(wantHigh))
	if len(lines) <= len(want) || lines[len(want)] != summary {
		t.Fatalf("no summary %q after %d alarm lines:\n%s", summary, len(want), out)
	}
	got := lines[:len(want)]
	var gotHigh []string
	for _, l := range got {
		if strings.Contains(l, "ALARM[high]") {
			gotHigh = append(gotHigh, l)
		}
	}
	for _, s := range [][]string{want, wantHigh, got, gotHigh} {
		slices.Sort(s)
	}
	if !slices.Equal(got, want) {
		t.Errorf("replay alarms differ from a serial Detector's")
	}
	if !slices.Equal(gotHigh, wantHigh) {
		t.Errorf("replay High alarms differ from a relationship-free Detector's")
	}
	if !strings.Contains(out, "incident 10.0.0.0/16:") {
		t.Errorf("no incident for the attacked prefix:\n%s", out[strings.Index(out, summary):])
	}
}

// TestRunReplayWideUpdate: one update raises more alarms than the feed's
// least capacity. Each of 1,100 monitors holds a route with three copies
// of AS65000 behind AS64999, then monitor AS70001's route loses two of
// them: 1,099 witnesses, 1,099 alarms, every one printed at any -shards.
func TestRunReplayWideUpdate(t *testing.T) {
	var stream strings.Builder
	mons := make([]string, 0, 1100)
	for m := 70001; m <= 71100; m++ {
		fmt.Fprintf(&stream, "A|%d|AS%d|10.0.0.0/24|%d 64999 65000 65000 65000\n", m-70000, m, m)
		mons = append(mons, fmt.Sprint(m))
	}
	stream.WriteString("A|1101|AS70001|10.0.0.0/24|70001 64999 65000\n")
	path := filepath.Join(t.TempDir(), "wide.log")
	if err := os.WriteFile(path, []byte(stream.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []string{"1", "4"} {
		out := replay(t, path, "-n", "300", "-shards", shards, "-monitors", strings.Join(mons, ","))
		var got int
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "10.0.0.0/24 ALARM[") {
				got++
			}
		}
		if got != 1099 {
			t.Errorf("-shards %s: %d alarm lines, want 1099", shards, got)
		}
		if !strings.Contains(out, "\n1101 updates, 1099 alarms (") {
			t.Errorf("-shards %s: summary does not count 1099 alarms:\n%s", shards, out[strings.LastIndex(out, "ALARM["):])
		}
	}
}

// TestRunReplayStream: a hand-written stream in which monitor AS2's route
// loses two of the origin's three copies behind AS6 while AS5 still sees
// all three over the same segment.
func TestRunReplayStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "updates.log")
	stream := `# two monitors watching one prefix
A|1|AS5|69.171.224.0/20|5 1 100 100 100
A|2|AS2|69.171.224.0/20|2 6 1 100 100 100
A|3|AS2|69.171.224.0/20|2 6 1 100
`
	if err := os.WriteFile(path, []byte(stream), 0o644); err != nil {
		t.Fatal(err)
	}
	out := replay(t, path, "-monitors", "2,5")
	if !strings.Contains(out, "69.171.224.0/20 ALARM[high] AS6") {
		t.Errorf("expected an alarm naming AS6:\n%s", out)
	}
	if !strings.Contains(out, "3 updates, 1 alarms (1 high), 0 dropped") {
		t.Errorf("unexpected summary:\n%s", out)
	}
	if !strings.Contains(out, "incident 69.171.224.0/20: 1 alarms (1 high) from 1 monitors, prime suspect AS6") {
		t.Errorf("missing incident line:\n%s", out)
	}
}

// TestRunReplaySimStream replays what asppsim -updates-out writes: the
// honest steady state raises no High alarm, and the attack's transition
// does.
func TestRunReplaySimStream(t *testing.T) {
	g, err := topology.Generate(topology.DefaultGenConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	monitors := g.TopByDegree(100)
	snap, trans := attackStream(t, g, monitors, netip.MustParsePrefix("10.0.0.0/16"), 0)
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		ups  []bgp.Update
		high bool
	}{
		{"snapshot", snap, false},
		{"attack", slices.Concat(snap, trans), true},
	} {
		path := filepath.Join(dir, tc.name+".log")
		writeStream(t, path, tc.ups)
		out := replay(t, path, "-n", "1000", "-monitors", "top100")
		if got := strings.Contains(out, "ALARM[high]"); got != tc.high {
			t.Errorf("%s: high alarm raised = %v, want %v:\n%s", tc.name, got, tc.high, out)
		}
	}
}
