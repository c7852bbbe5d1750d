package defense

import (
	"math/rand"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/detect"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// detectOwnPolicy is the prefix owner's self-defense check (the paper's
// §V-B deployment: "an prefix owner can monitor the data from public
// monitors continuously"). Unlike third-party detection, the owner knows
// exactly how many prepends it sent to each neighbor, so any observed
// route carrying fewer origin copies than the policy prescribes for its
// entry neighbor is proof of stripping — no cross-monitor witness needed.
//
// lambdaFor must return the λ the owner announces toward a given direct
// neighbor (and 0 for ASes the owner does not announce to at all, in
// which case any route entering there is itself an anomaly).
func detectOwnPolicy(origin bgp.ASN, lambdaFor func(neighbor bgp.ASN) int, routes []detect.MonitorRoute) []detect.Alarm {
	var alarms []detect.Alarm
	for _, r := range routes {
		if len(r.Path) == 0 {
			continue
		}
		if o, _ := r.Path.Origin(); o != origin {
			continue // not our prefix (MOAS handled elsewhere)
		}
		tr := r.Path.Unique()
		tr = tr[:len(tr)-1] // the transit chain, without the origin run
		if len(tr) == 0 {
			continue // the monitor is our own neighbor seeing the raw announcement
		}
		entry := tr[len(tr)-1] // the origin's direct neighbor on this route
		want := lambdaFor(entry)
		got := r.Path.OriginPrepend()
		if want == 0 {
			// Route enters through a neighbor we never announced to.
			alarms = append(alarms, detect.Alarm{
				Confidence: detect.High,
				Suspect:    entry,
				Monitor:    r.Monitor,
				Witness:    origin,
			})
			continue
		}
		if got < want {
			// Someone above the entry neighbor removed pads. The closest
			// locus we can name from one route is the AS just above the
			// entry (refined by cross-monitor evidence elsewhere).
			suspect := r.Monitor
			if len(tr) >= 2 {
				suspect = tr[len(tr)-2]
			}
			alarms = append(alarms, detect.Alarm{
				Confidence:  detect.High,
				Suspect:     suspect,
				Monitor:     r.Monitor,
				Witness:     origin,
				RemovedPads: want - got,
			})
		}
	}
	return alarms
}

func TestDetectOwnPolicy(t *testing.T) {
	// Owner 100 announces λ=3 to neighbor 1 and λ=5 to neighbor 3.
	lambdaFor := func(n bgp.ASN) int {
		switch n {
		case 1:
			return 3
		case 3:
			return 5
		default:
			return 0
		}
	}
	routes := func(specs ...string) []detect.MonitorRoute {
		t.Helper()
		out := make([]detect.MonitorRoute, 0, len(specs))
		for i, s := range specs {
			out = append(out, detect.MonitorRoute{Monitor: bgp.ASN(900 + i), Path: mustParsePath(t, s)})
		}
		return out
	}

	t.Run("consistent routes raise nothing", func(t *testing.T) {
		alarms := detectOwnPolicy(100, lambdaFor, routes(
			"5 1 100 100 100",
			"4 3 100 100 100 100 100",
		))
		if len(alarms) != 0 {
			t.Errorf("alarms on consistent routes: %v", alarms)
		}
	})

	t.Run("stripped pads detected with exact count", func(t *testing.T) {
		alarms := detectOwnPolicy(100, lambdaFor, routes(
			"5 6 1 100", // two of three pads gone above neighbor 1
		))
		if len(alarms) != 1 {
			t.Fatalf("alarms = %v, want 1", alarms)
		}
		if alarms[0].RemovedPads != 2 || alarms[0].Suspect != 6 {
			t.Errorf("alarm = %+v, want 2 pads removed, suspect 6", alarms[0])
		}
	})

	t.Run("route through unannounced neighbor alarms", func(t *testing.T) {
		alarms := detectOwnPolicy(100, lambdaFor, routes("5 9 100 100 100"))
		if len(alarms) != 1 || alarms[0].Suspect != 9 {
			t.Errorf("alarms = %v, want suspect 9", alarms)
		}
	})

	t.Run("extra pads are fine", func(t *testing.T) {
		// More pads than policy can come from in-flight aggregation noise
		// and are not an interception.
		alarms := detectOwnPolicy(100, lambdaFor, routes("5 1 100 100 100 100"))
		if len(alarms) != 0 {
			t.Errorf("alarms on extra pads: %v", alarms)
		}
	})

	t.Run("foreign prefix ignored", func(t *testing.T) {
		alarms := detectOwnPolicy(100, lambdaFor, routes("5 1 99"))
		if len(alarms) != 0 {
			t.Errorf("alarms on foreign origin: %v", alarms)
		}
	})
}

// TestOwnerDetectsNeighborAttacker covers the paper's §V-B corner case:
// when the attacker is the victim's *direct neighbor*, third-party
// cross-monitor detection fails (no two monitors share a below-attacker
// segment with different pads), but the owner-policy check still works
// from any polluted vantage point.
func TestOwnerDetectsNeighborAttacker(t *testing.T) {
	//     10 ---- 20        tier-1 peers
	//    /  \       \
	//  30    40      50     mid tier
	//   |  \  |       |
	//   |   \ |       60    monitors live at 60 and 40
	//   +----100            victim, customer of 30 (honest) and 40 (attacker)
	b := topology.NewBuilder()
	for _, e := range [][2]bgp.ASN{
		{10, 30}, {10, 40}, {20, 50}, {50, 60}, {30, 100}, {40, 100},
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
	im, err := core.Simulate(g, core.Scenario{Victim: 100, Attacker: 40, Prepend: 4})
	if err != nil {
		t.Fatal(err)
	}
	if im.PollutedAfter == 0 {
		t.Fatal("premise broken: neighbor attacker polluted nobody")
	}

	monitors := []bgp.ASN{60, 30}
	// Third-party detection: every polluted route enters through the
	// attacker itself (a direct neighbor of the victim), so no witness
	// shares a below-attacker segment -> no high-confidence conflict.
	res := detect.EvaluateScratch(im, monitors, g, detect.NewEvalScratch())
	if res.DetectedHigh {
		t.Errorf("cross-monitor detection unexpectedly found a segment conflict: %+v", res)
	}

	// The owner, knowing it sent λ=4 to both neighbors, spots the strip
	// immediately from the polluted monitor's route.
	attacked := im.Attacked()
	var routes []detect.MonitorRoute
	for _, m := range monitors {
		if p := attacked.PathOf(m); p != nil {
			routes = append(routes, detect.MonitorRoute{Monitor: m, Path: p})
		}
	}
	lambdaFor := func(n bgp.ASN) int {
		if n == 30 || n == 40 {
			return 4
		}
		return 0
	}
	alarms := detectOwnPolicy(100, lambdaFor, routes)
	if len(alarms) == 0 {
		t.Fatal("owner-policy check missed the neighbor attacker")
	}
	found := false
	for _, a := range alarms {
		if a.RemovedPads == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("no alarm reports 3 removed pads: %v", alarms)
	}
}

// TestOwnerPolicyNoFalsePositives: the owner-side check must stay silent
// on any honest routing state whose policy the owner reports truthfully.
func TestOwnerPolicyNoFalsePositives(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 25; trial++ {
		cfg := topology.DefaultGenConfig(80 + rng.Intn(120))
		cfg.Seed = rng.Int63()
		g, err := topology.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		asns := g.ASNs()
		origin := asns[rng.Intn(len(asns))]
		ann := routing.Announcement{Origin: origin, Prepend: 1 + rng.Intn(5)}
		ann.PerNeighbor = make(map[bgp.ASN]int)
		for _, n := range g.Providers(origin) {
			if rng.Intn(2) == 0 {
				ann.PerNeighbor[n] = 1 + rng.Intn(6)
			}
		}
		res, err := routing.Propagate(g, ann)
		if err != nil {
			t.Fatal(err)
		}
		var routes []detect.MonitorRoute
		for _, m := range g.TopByDegree(50) {
			if p := res.PathOf(m); p != nil {
				routes = append(routes, detect.MonitorRoute{Monitor: m, Path: p})
			}
		}
		lambdaFor := func(n bgp.ASN) int {
			if g.RelOf(origin, n) == topology.RelNone {
				return 0
			}
			if v, ok := ann.PerNeighbor[n]; ok {
				return v
			}
			return ann.Prepend
		}
		if alarms := detectOwnPolicy(origin, lambdaFor, routes); len(alarms) != 0 {
			t.Fatalf("trial %d (origin %v): owner-policy false positives: %v",
				trial, origin, alarms)
		}
	}
}

func mustParsePath(t *testing.T, s string) bgp.Path {
	t.Helper()
	p, err := bgp.ParsePath(s)
	if err != nil {
		t.Fatalf("ParsePath(%q): %v", s, err)
	}
	return p
}
