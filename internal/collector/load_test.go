package collector

import (
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/obs"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

func churnFixture(t *testing.T) (*topologyFixture, []ChurnEvent) {
	t.Helper()
	g := surveyGraph(t, 400, 5)
	origins, err := AssignOrigins(g, DefaultPolicyConfig())
	if err != nil {
		t.Fatalf("AssignOrigins: %v", err)
	}
	events := PlanChurn(origins, 30, 11)
	if len(events) == 0 {
		t.Fatal("no churn events")
	}
	return &topologyFixture{g: g, origins: origins, monitors: g.TopByDegree(20)}, events
}

type topologyFixture struct {
	g        *topology.Graph
	origins  []OriginConfig
	monitors []bgp.ASN
}

func TestChurnStreamBasics(t *testing.T) {
	fix, events := churnFixture(t)
	counters := &obs.Counters{}
	updates, err := ChurnStream(fix.g, fix.origins, events, fix.monitors, 4, counters)
	if err != nil {
		t.Fatalf("ChurnStream: %v", err)
	}
	if len(updates) == 0 {
		t.Fatal("empty stream")
	}
	// Timestamps renumbered strictly increasing from 1.
	for i, u := range updates {
		if u.Time != uint64(i+1) {
			t.Fatalf("update %d has Time %d", i, u.Time)
		}
		if u.Type == bgp.Announce && len(u.Path) == 0 {
			t.Fatalf("update %d: announce without a path", i)
		}
		if u.Type == bgp.Withdraw && len(u.Path) != 0 {
			t.Fatalf("update %d: withdraw carries a path", i)
		}
	}
	// Both transition directions present: failovers announce longer
	// (padded) routes, restores bring the short primaries back.
	var announces, withdraws int
	for _, u := range updates {
		if u.Type == bgp.Announce {
			announces++
		} else {
			withdraws++
		}
	}
	if announces == 0 {
		t.Fatal("no announcements in churn stream")
	}
	cs := counters.Snapshot()
	if cs.ChurnUpdates != int64(len(updates)) {
		t.Fatalf("churn_updates counter %d, want %d", cs.ChurnUpdates, len(updates))
	}
	if cs.BasePropagations != int64(2*len(events)) {
		t.Fatalf("prop_base counter %d, want %d", cs.BasePropagations, 2*len(events))
	}
}

func TestChurnStreamDeterministic(t *testing.T) {
	fix, events := churnFixture(t)
	a, err := ChurnStream(fix.g, fix.origins, events, fix.monitors, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChurnStream(fix.g, fix.origins, events, fix.monitors, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("ChurnStream output depends on worker count")
	}
}

// TestChurnStreamRecordsMemory: the corpus build records the graph's bytes
// and its largest Scratch's, and the Scratch figure does not move with the
// worker count.
func TestChurnStreamRecordsMemory(t *testing.T) {
	fix, events := churnFixture(t)
	var scratch [2]int64
	for i, workers := range []int{1, 8} {
		c := new(obs.Counters)
		if _, err := ChurnStream(fix.g, fix.origins, events, fix.monitors, workers, c); err != nil {
			t.Fatal(err)
		}
		s := c.Snapshot()
		if s.CSRBytes != fix.g.MemoryBytes() || s.ScratchBytes <= 0 {
			t.Fatalf("%d workers: csr_bytes=%d scratch_bytes=%d, want %d and > 0", workers, s.CSRBytes, s.ScratchBytes, fix.g.MemoryBytes())
		}
		scratch[i] = s.ScratchBytes
	}
	if scratch[0] != scratch[1] {
		t.Fatalf("scratch_bytes=%d at 1 worker, %d at 8", scratch[0], scratch[1])
	}
}

func TestChurnStreamErrors(t *testing.T) {
	fix, events := churnFixture(t)
	if got, err := ChurnStream(fix.g, fix.origins, nil, fix.monitors, 4, nil); err != nil || got != nil {
		t.Fatalf("empty events: %v, %v", got, err)
	}
	noPrefix := append([]OriginConfig(nil), fix.origins...)
	for i := range noPrefix {
		noPrefix[i].Prefixes = []netip.Prefix{{}}
	}
	if _, err := ChurnStream(fix.g, noPrefix, events, fix.monitors, 4, nil); err == nil {
		t.Fatal("invalid prefix accepted")
	}
	bad := []ChurnEvent{{Origin: 0xFFFFFF, Primary: 1}}
	if _, err := ChurnStream(fix.g, fix.origins, bad, fix.monitors, 4, nil); err == nil {
		t.Fatal("unknown origin accepted")
	}
}

// fullTableTransition is StreamTransition as it stood before transitions
// were read off monitor spans: every monitor's path materialized from a
// whole-graph result, compared as slices. The oracle for both entry points.
func fullTableTransition(before, after *routing.Result, prefix netip.Prefix, monitors []bgp.ASN, startTime uint64) []bgp.Update {
	sorted := append([]bgp.ASN(nil), monitors...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	var out []bgp.Update
	tm := startTime
	for _, m := range sorted {
		oldPath, newPath := before.PathOf(m), after.PathOf(m)
		switch {
		case newPath == nil && oldPath == nil:
		case newPath == nil:
			tm++
			out = append(out, bgp.Update{Time: tm, Monitor: m, Type: bgp.Withdraw, Prefix: prefix})
		case oldPath.Equal(newPath):
		default:
			tm++
			out = append(out, bgp.Update{Time: tm, Monitor: m, Type: bgp.Announce, Prefix: prefix, Path: newPath})
		}
	}
	return out
}

// TestChurnStreamMatchesFullTables: the corpus built from monitor spans of
// restricted propagations is, update for update, the one built from two
// whole-graph tables per event — with a monitor list holding an ASN outside
// the graph, a duplicate, a churning origin and a low-degree stub, on
// worker Scratches whose skipped rows are poisoned (routing.Vantage).
func TestChurnStreamMatchesFullTables(t *testing.T) {
	fix, _ := churnFixture(t)
	events := PlanChurn(fix.origins, 120, 3)
	monitors := append(fix.g.TopByDegree(12), 0xFFFFFF, events[0].Origin, events[7].Origin)
	for _, a := range fix.g.ASNs() {
		if fix.g.IsStub(a) {
			monitors = append(monitors, a, a)
			break
		}
	}
	got, err := ChurnStream(fix.g, fix.origins, events, monitors, 3, nil)
	if err != nil {
		t.Fatalf("ChurnStream: %v", err)
	}

	byAS := make(map[bgp.ASN]OriginConfig)
	for _, oc := range fix.origins {
		byAS[oc.AS] = oc
	}
	var want []bgp.Update
	for _, ev := range events {
		oc := byAS[ev.Origin]
		steady, err := routing.Propagate(fix.g, oc.Announcement)
		if err != nil {
			t.Fatal(err)
		}
		failedAnn := oc.Announcement
		failedAnn.PerNeighbor = map[bgp.ASN]int{ev.Primary: 0}
		for n, lam := range oc.Announcement.PerNeighbor {
			if n != ev.Primary {
				failedAnn.PerNeighbor[n] = lam
			}
		}
		failed, err := routing.Propagate(fix.g, failedAnn)
		if err != nil {
			t.Fatal(err)
		}
		for _, pfx := range oc.Prefixes {
			want = append(want, fullTableTransition(steady, failed, pfx, monitors, 0)...)
			want = append(want, fullTableTransition(failed, steady, pfx, monitors, 0)...)
		}
	}
	for i := range want {
		want[i].Time = uint64(i + 1)
	}
	if len(want) < 1000 {
		t.Fatalf("oracle corpus has only %d updates", len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ChurnStream: %d updates, the full-table corpus has %d (or they differ in content)", len(got), len(want))
	}
}

// TestStreamTransitionMatchesFullTables holds StreamTransition to the same
// oracle on attack transitions of every kind: a captured monitor's path may
// change its origin (a hijack) with its transit chain and length unchanged.
func TestStreamTransitionMatchesFullTables(t *testing.T) {
	g := surveyGraph(t, 300, 8)
	asns := g.ASNs()
	monitors := append(g.TopByDegree(25), 0xFFFFFF, asns[3], asns[3])
	pfx := netip.MustParsePrefix("10.9.0.0/16")
	rng := rand.New(rand.NewSource(4))
	legs, updates := 0, 0
	for legs < 90 {
		sc := core.Scenario{Victim: asns[rng.Intn(len(asns))], Attacker: asns[rng.Intn(len(asns))], Prepend: 1 + rng.Intn(4), Type: core.AttackType(legs % 3)}
		im, err := core.Simulate(g, sc)
		if err != nil {
			continue // same AS twice, or an attacker with no route
		}
		legs++
		mons := append(monitors, sc.Victim, sc.Attacker)
		for _, dir := range [][2]*routing.Result{{im.Baseline(), im.Attacked()}, {im.Attacked(), im.Baseline()}} {
			got, err := StreamTransition(dir[0], dir[1], pfx, mons, 40)
			if err != nil {
				t.Fatal(err)
			}
			want := fullTableTransition(dir[0], dir[1], pfx, mons, 40)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v: StreamTransition\n%v\nfull tables\n%v", sc, got, want)
			}
			updates += len(want)
		}
	}
	if updates < 200 {
		t.Fatalf("only %d updates over %d legs", updates, legs)
	}
}

// TestParseMonitors: asppserve and asppload read -monitors through this one
// parser.
func TestParseMonitors(t *testing.T) {
	g := surveyGraph(t, 300, 3)
	top := g.TopByDegree(300)
	for _, tc := range []struct {
		spec    string
		want    []bgp.ASN
		wantErr string
	}{
		{spec: "top1", want: top[:1]},
		{spec: "top40", want: top[:40]},
		{spec: "top9999", want: top}, // every AS there is
		{spec: "7018", want: []bgp.ASN{7018}},
		{spec: "AS7018, 3356,65000", want: []bgp.ASN{7018, 3356, 65000}},
		{spec: "top0", wantErr: "want topK, K >= 1"},
		{spec: "top-4", wantErr: "want topK, K >= 1"},
		{spec: "top", wantErr: "want topK, K >= 1"},
		{spec: "topmost", wantErr: "want topK, K >= 1"},
		{spec: "", wantErr: `bad -monitors ""`},
		{spec: "7018,,3356", wantErr: "bad -monitors"},
		{spec: "bogus,list", wantErr: "bad -monitors"},
	} {
		got, err := ParseMonitors(tc.spec, g)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseMonitors(%q) = %v, err %v; want an error containing %q", tc.spec, got, err, tc.wantErr)
			}
		} else if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("ParseMonitors(%q) = %v, err %v; want %v", tc.spec, got, err, tc.want)
		}
	}
}
