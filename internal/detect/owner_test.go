package detect

import (
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/topology"
)

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
	routes := func(specs ...string) []MonitorRoute {
		t.Helper()
		out := make([]MonitorRoute, 0, len(specs))
		for i, s := range specs {
			out = append(out, MonitorRoute{Monitor: bgp.ASN(900 + i), Path: mustPath(t, s)})
		}
		return out
	}

	t.Run("consistent routes raise nothing", func(t *testing.T) {
		alarms := DetectOwnPolicy(100, lambdaFor, routes(
			"5 1 100 100 100",
			"4 3 100 100 100 100 100",
		))
		if len(alarms) != 0 {
			t.Errorf("alarms on consistent routes: %v", alarms)
		}
	})

	t.Run("stripped pads detected with exact count", func(t *testing.T) {
		alarms := DetectOwnPolicy(100, lambdaFor, routes(
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
		alarms := DetectOwnPolicy(100, lambdaFor, routes("5 9 100 100 100"))
		if len(alarms) != 1 || alarms[0].Suspect != 9 {
			t.Errorf("alarms = %v, want suspect 9", alarms)
		}
	})

	t.Run("extra pads are fine", func(t *testing.T) {
		// More pads than policy can come from in-flight aggregation noise
		// and are not an interception.
		alarms := DetectOwnPolicy(100, lambdaFor, routes("5 1 100 100 100 100"))
		if len(alarms) != 0 {
			t.Errorf("alarms on extra pads: %v", alarms)
		}
	})

	t.Run("foreign prefix ignored", func(t *testing.T) {
		alarms := DetectOwnPolicy(100, lambdaFor, routes("5 1 99"))
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
	res := EvaluateScratch(im, monitors, g, NewEvalScratch())
	if res.DetectedHigh {
		t.Errorf("cross-monitor detection unexpectedly found a segment conflict: %+v", res)
	}

	// The owner, knowing it sent λ=4 to both neighbors, spots the strip
	// immediately from the polluted monitor's route.
	attacked := im.Attacked()
	var routes []MonitorRoute
	for _, m := range monitors {
		if p := attacked.PathOf(m); p != nil {
			routes = append(routes, MonitorRoute{Monitor: m, Path: p})
		}
	}
	lambdaFor := func(n bgp.ASN) int {
		if n == 30 || n == 40 {
			return 4
		}
		return 0
	}
	alarms := DetectOwnPolicy(100, lambdaFor, routes)
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
