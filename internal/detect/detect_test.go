package detect

import (
	"net/netip"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// DetectChange runs the paper's detection algorithm for one route change
// observed at a monitor: prev is the monitor's previous best path for the
// prefix, cur the new one, and witnesses the current routes of the other
// vantage points. rels may be nil, in which case the relationship-based
// hint rules are skipped and only segment conflicts are reported.
//
// It is the path-slice shim the table tests and FuzzDetect drive: the paths
// go into a throwaway arena as one row (the monitor first, then each
// witness) and detectRow decides.
func DetectChange(monitor bgp.ASN, prev, cur bgp.Path, witnesses []MonitorRoute, rels RelQuerier) []Alarm {
	a := routing.NewPathArena()
	store := func(p bgp.Path) routing.PathSpan {
		if len(p) == 0 {
			return routing.PathSpan{Seg: -1}
		}
		return a.Store(p)
	}
	mons := make([]bgp.ASN, 1, 1+len(witnesses))
	spans := make([]routing.PathSpan, 1, 1+len(witnesses))
	row := make([]int32, 1+len(witnesses))
	mons[0], spans[0] = monitor, store(cur)
	for k, w := range witnesses {
		mons, spans, row[k+1] = append(mons, w.Monitor), append(spans, store(w.Path)), int32(k+1)
	}
	return rowAlarms(a, mons, row, spans, 0, store(prev), rels, nil)
}

// rowAlarms is detectRow through the streaming Detector's sink: every alarm
// appended to dst, in row order.
func rowAlarms(a *routing.PathArena, mons []bgp.ASN, row []int32, spans []routing.PathSpan, mi int, was routing.PathSpan, rels RelQuerier, dst []Alarm) []Alarm {
	s := sink{out: dst}
	detectRow(a, mons, row, spans, mi, was, rels, &s)
	return s.out
}

func mustPath(t *testing.T, s string) bgp.Path {
	t.Helper()
	p, err := bgp.ParsePath(s)
	if err != nil {
		t.Fatalf("ParsePath(%q): %v", s, err)
	}
	return p
}

// fig3Graph reproduces the topology of the paper's Figure 3:
//
//	V announces [V V V] to A and [V V] to C (per-neighbor prepending).
//	A serves E and M; M strips two V's and sends [M A V] to B.
//	The monitor has sessions with B, E, and D.
//
// Relationships (chosen to be consistent with the figure's arrows):
// A, C are V's providers; E, M are A's providers; B is M's provider;
// D is C's provider.
func fig3Graph(t *testing.T) *topology.Graph {
	t.Helper()
	const (
		V = 100
		A = 1
		B = 2
		C = 3
		D = 4
		E = 5
		M = 6
	)
	b := topology.NewBuilder()
	for _, e := range [][2]bgp.ASN{
		{A, V}, {C, V}, {E, A}, {M, A}, {B, M}, {D, C},
	} {
		if err := b.AddP2C(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDetectFig3Example(t *testing.T) {
	// The monitor observes E's honest route [E A V V V] and B's route
	// [B M A V] after M stripped two prepends. Comparing the route from B
	// against the witness from E: common segment [A] adjacent to V, with
	// paddings 1 vs 3 -> high-confidence alarm naming M.
	prev := mustPath(t, "2 6 1 100 100 100") // B's earlier (honest) view via M
	cur := mustPath(t, "2 6 1 100")          // B's view after M strips
	witnesses := []MonitorRoute{
		{Monitor: 5, Path: mustPath(t, "5 1 100 100 100")}, // E's view
	}
	alarms := DetectChange(2, prev, cur, witnesses, fig3Graph(t))
	if len(alarms) != 1 {
		t.Fatalf("alarms = %v, want exactly 1", alarms)
	}
	a := alarms[0]
	if a.Confidence != High {
		t.Errorf("confidence = %v, want High", a.Confidence)
	}
	if a.Suspect != 6 {
		t.Errorf("suspect = %v, want M (AS6)", a.Suspect)
	}
	if a.RemovedPads != 2 {
		t.Errorf("removed pads = %d, want 2", a.RemovedPads)
	}
	if a.Monitor != 2 || a.Witness != 5 {
		t.Errorf("monitor/witness = %v/%v, want 2/5", a.Monitor, a.Witness)
	}
}

func TestDetectLegitimatePerNeighborPrepending(t *testing.T) {
	// V sends λ=2 to C and λ=3 to A (pure traffic engineering). Routes via
	// different V-neighbors share no segment, so no alarm may fire even
	// though paddings differ.
	g := fig3Graph(t)
	prev := mustPath(t, "4 3 100 100 100") // D's old view via C (say λ was 3)
	cur := mustPath(t, "4 3 100 100")      // V legitimately reduced C's λ to 2
	witnesses := []MonitorRoute{
		{Monitor: 5, Path: mustPath(t, "5 1 100 100 100")}, // E's view via A, λ=3
	}
	alarms := DetectChange(4, prev, cur, witnesses, g)
	for _, a := range alarms {
		if a.Confidence == High {
			t.Errorf("false positive high alarm on legitimate TE: %v", a)
		}
	}
}

func TestDetectNoTriggerWithoutPaddingDecrease(t *testing.T) {
	g := fig3Graph(t)
	witnesses := []MonitorRoute{
		{Monitor: 5, Path: mustPath(t, "5 1 100 100 100")},
	}
	// Same padding: route change but no prepend decrease.
	prev := mustPath(t, "2 6 1 100 100 100")
	cur := mustPath(t, "2 6 1 100 100 100")
	if got := DetectChange(2, prev, cur, witnesses, g); got != nil {
		t.Errorf("alarm without padding decrease: %v", got)
	}
	// Padding increase.
	cur2 := mustPath(t, "2 6 1 100 100 100 100")
	if got := DetectChange(2, prev, cur2, witnesses, g); got != nil {
		t.Errorf("alarm on padding increase: %v", got)
	}
}

func TestDetectIgnoresOriginChange(t *testing.T) {
	g := fig3Graph(t)
	prev := mustPath(t, "2 6 1 100 100 100")
	cur := mustPath(t, "2 6 1 99") // different origin: MOAS, not ASPP
	if got := DetectChange(2, prev, cur, nil, g); got != nil {
		t.Errorf("alarm on origin change: %v", got)
	}
}

func TestDetectSuspectIsMonitorNextHopWhenSegmentCoversRoute(t *testing.T) {
	// When the changed route's whole transit matches the witness's suffix,
	// nothing above the shared segment exists except the monitor itself.
	prev := mustPath(t, "1 100 100 100")
	cur := mustPath(t, "1 100")
	witnesses := []MonitorRoute{
		{Monitor: 5, Path: mustPath(t, "5 1 100 100 100")},
	}
	alarms := DetectChange(9, prev, cur, witnesses, nil)
	if len(alarms) != 1 || alarms[0].Suspect != 9 {
		t.Fatalf("alarms = %v, want suspect = monitor 9", alarms)
	}
}

func TestDetectHintCustomerCase(t *testing.T) {
	// No shared segment, but the witness's next hop (asL) is the provider
	// of the changed route's second AS (asIm1): asL should have heard the
	// shorter route from its customer -> possible alarm.
	b := topology.NewBuilder()
	// asIm1 = 11 is a customer of asL = 21.
	if err := b.AddP2C(21, 11); err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]bgp.ASN{{11, 100}, {31, 100}, {21, 31}, {12, 11}} {
		if err := b.AddP2C(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prev := mustPath(t, "12 11 100 100 100")
	cur := mustPath(t, "12 11 100") // two pads removed somewhere above 11
	witnesses := []MonitorRoute{
		// Witness route via a disjoint branch with full padding, longer
		// end-to-end; its next hop 21 is 11's provider.
		{Monitor: 7, Path: mustPath(t, "21 31 100 100 100")},
	}
	alarms := DetectChange(8, prev, cur, witnesses, g)
	if len(alarms) != 1 {
		t.Fatalf("alarms = %v, want 1 possible alarm", alarms)
	}
	if alarms[0].Confidence != Possible || alarms[0].Suspect != 12 {
		t.Errorf("alarm = %v, want possible/suspect 12", alarms[0])
	}
}

func TestDetectHintSkippedWithoutRels(t *testing.T) {
	prev := mustPath(t, "12 11 100 100 100")
	cur := mustPath(t, "12 11 100")
	witnesses := []MonitorRoute{
		{Monitor: 7, Path: mustPath(t, "21 31 100 100 100")},
	}
	if got := DetectChange(8, prev, cur, witnesses, nil); got != nil {
		t.Errorf("hint alarms without rels: %v", got)
	}
}

func TestDetectorStream(t *testing.T) {
	g := fig3Graph(t)
	d := NewDetector([]bgp.ASN{2, 5}, g)
	pfx := netip.MustParsePrefix("69.171.224.0/20")

	obs := func(monitor bgp.ASN, path string, tm uint64) []Alarm {
		t.Helper()
		return d.Observe(bgp.Update{
			Time: tm, Monitor: monitor, Type: bgp.Announce,
			Prefix: pfx, Path: mustPath(t, path),
		})
	}
	// Initial honest state.
	if got := obs(5, "5 1 100 100 100", 1); got != nil {
		t.Errorf("alarm on first sight: %v", got)
	}
	if got := obs(2, "2 6 1 100 100 100", 2); got != nil {
		t.Errorf("alarm on first sight: %v", got)
	}
	// M strips: B's view shortens.
	alarms := obs(2, "2 6 1 100", 3)
	if len(alarms) != 1 || alarms[0].Suspect != 6 {
		t.Fatalf("alarms = %v, want suspect AS6", alarms)
	}
	// Non-monitor updates are ignored.
	if got := obs(99, "99 1 100", 4); got != nil {
		t.Errorf("alarm from non-monitor: %v", got)
	}
	// Withdrawals clear state without alarming.
	if got := d.Observe(bgp.Update{Time: 5, Monitor: 5, Type: bgp.Withdraw, Prefix: pfx}); got != nil {
		t.Errorf("alarm on withdraw: %v", got)
	}
	if d.RouteOf(pfx, 5) != nil {
		t.Error("withdrawn route still present")
	}
	if len(d.Monitors()) != 2 {
		t.Errorf("Monitors = %v", d.Monitors())
	}
}

func TestEvaluateEndToEnd(t *testing.T) {
	// Full pipeline on the routing test topology: attacker 50 strips V's
	// prepends; monitors at 70 (polluted) and 40 (honest witness) must
	// detect and attribute the attack.
	b := topology.NewBuilder()
	for _, e := range [][2]bgp.ASN{
		{10, 30}, {10, 40}, {20, 50}, {20, 60}, {20, 65},
		{30, 100}, {40, 70}, {50, 70}, {60, 200}, {65, 200},
	} {
		if err := b.AddP2C(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddP2P(10, 20); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	im, err := core.Simulate(g, core.Scenario{Victim: 100, Attacker: 50, Prepend: 3})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	// Monitor 60's honest route goes via 20, giving a witness whose common
	// segment with the bogus route extends right up to the attacker.
	// One scratch across three monitor lists: its index cache must follow.
	sc := NewEvalScratch()
	res := EvaluateScratch(im, []bgp.ASN{70, 40, 60}, g, sc)
	if !res.Detected || !res.DetectedHigh {
		t.Fatalf("attack not detected: %+v", res)
	}
	if !res.Attributed {
		t.Errorf("attacker not attributed: %+v", res)
	}
	// With only the shallow witness 40, the evidence localizes the strip
	// to AS20-or-above: detected but not exactly attributed.
	shallow := EvaluateScratch(im, []bgp.ASN{70, 40}, g, sc)
	if !shallow.Detected {
		t.Fatal("shallow monitor set failed to detect")
	}
	if shallow.Attributed {
		t.Error("shallow witness unexpectedly pinned the attacker exactly")
	}
	// 70 is the only polluted AS and it is itself a monitor: nothing is
	// polluted before detection.
	if res.PollutedBeforeDetection != 0 {
		t.Errorf("PollutedBeforeDetection = %v, want 0", res.PollutedBeforeDetection)
	}

	// Monitors that cannot see the conflict (only unpolluted 60) detect
	// nothing; the metric degrades to 1.
	blind := EvaluateScratch(im, []bgp.ASN{60}, g, sc)
	if blind.Detected {
		t.Errorf("blind monitor set detected the attack: %+v", blind)
	}
	if blind.PollutedBeforeDetection != 1 {
		t.Errorf("undetected PollutedBeforeDetection = %v, want 1", blind.PollutedBeforeDetection)
	}
}

// TestFoldHintAfterHigh: once a cut holds an alarm, Fold skips a witness's
// hint rules only when the hint could not name the attacker. Attacker 50
// strips V's pads toward its customer 70, whose route becomes [50 12 11 100].
// Witness 40 hangs off 11 with the full pads: a High alarm, which places the
// strip above 11 and so names 12. Witness 60's route [21 31 100 100 100]
// shares no segment, but 21 is a provider of 12, the AS below 70's next hop:
// a hint, which names the next hop 50, the attacker. So the list
// [70, 40, 60] is attributed only through the hint that comes after the
// High alarm, in one cut of the whole list and in the last of three.
func TestFoldHintAfterHigh(t *testing.T) {
	b := topology.NewBuilder()
	for _, e := range [][2]bgp.ASN{
		{11, 100}, {31, 100}, {12, 11}, {50, 12}, {21, 12}, {21, 31}, {50, 70}, {11, 40}, {21, 60},
	} {
		if err := b.AddP2C(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	im, err := core.Simulate(g, core.Scenario{Victim: 100, Attacker: 50, Prepend: 3})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	monitors := []bgp.ASN{70, 40, 60}
	sc := NewEvalScratch()
	if got, want := EvaluateScratch(im, monitors, g, sc), legacyEvaluate(im, monitors, g); got != want || !got.Attributed {
		t.Fatalf("whole list: fold %+v, legacy %+v", got, want)
	}
	res, hops := make([]EvalResult, 3), make([]int, 3)
	sc.Fold(0, []int{1, 2, 3}, g, res, hops)
	for j := range res {
		got := res[j]
		got.PollutedBeforeDetection = sc.PollutedBefore(hops[j])
		if want := legacyEvaluate(im, monitors[:j+1], g); got != want {
			t.Fatalf("end %d: fold %+v, legacy %+v", j+1, got, want)
		}
	}
	if !res[1].DetectedHigh || res[1].Attributed || !res[2].Attributed {
		t.Fatalf("premise broken: ends 2 and 3 give %+v", res[1:])
	}
}

func TestDetectChangeNilRoutes(t *testing.T) {
	cur := mustPath(t, "2 6 1 100")
	if got := DetectChange(2, nil, cur, nil, nil); got != nil {
		t.Errorf("alarms with nil prev: %v", got)
	}
	if got := DetectChange(2, cur, nil, nil, nil); got != nil {
		t.Errorf("alarms with nil cur: %v", got)
	}
	// Witness with empty path is skipped, monitor's own route excluded.
	prev := mustPath(t, "2 6 1 100 100 100")
	witnesses := []MonitorRoute{
		{Monitor: 2, Path: mustPath(t, "2 6 1 100 100 100")}, // self: skipped
		{Monitor: 4, Path: nil},                              // empty: skipped
	}
	if got := DetectChange(2, prev, cur, witnesses, nil); got != nil {
		t.Errorf("alarms from degenerate witnesses: %v", got)
	}
}
