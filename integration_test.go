package aspp

// Cross-module integration tests: full pipelines from topology generation
// through routing, collection, streaming and detection.

import (
	"bytes"
	"io"
	"net/netip"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/collector"
	"aspp/internal/core"
	"aspp/internal/detect"
	"aspp/internal/routing"
)

// TestLegitimateChurnRaisesNoHighAlarms replays a full failure/restore
// cycle of backup-provisioned origins through the streaming detector:
// failovers move monitors onto heavily padded backup routes and restores
// move them back (a prepend-count *decrease*), yet none of it is an
// attack and the high-confidence rule must stay silent throughout.
func TestLegitimateChurnRaisesNoHighAlarms(t *testing.T) {
	g := testGraph(t, 800, 91)
	origins, err := collector.AssignOrigins(g, collector.DefaultPolicyConfig())
	if err != nil {
		t.Fatal(err)
	}
	monitors := g.TopByDegree(60)
	det := detect.NewDetector(monitors, g)

	events := collector.PlanChurn(origins, 12, 5)
	if len(events) == 0 {
		t.Skip("no backup-provisioned origins in this instance")
	}
	var tm uint64
	highAlarms := 0
	for _, ev := range events {
		var oc collector.OriginConfig
		for _, cand := range origins {
			if cand.AS == ev.Origin {
				oc = cand
				break
			}
		}
		prefix := oc.Prefixes[0]
		steady, err := routing.Propagate(g, oc.Announcement)
		if err != nil {
			t.Fatal(err)
		}
		failed, err := routing.Propagate(g, ev.Failover(oc.Announcement))
		if err != nil {
			t.Fatal(err)
		}

		feed := func(res *routing.Result) {
			for _, m := range monitors {
				p := res.PathOf(m)
				tm++
				u := bgp.Update{Time: tm, Monitor: m, Prefix: prefix}
				if p == nil {
					u.Type = bgp.Withdraw
				} else {
					u.Type = bgp.Announce
					u.Path = p
				}
				if det.RouteOf(prefix, m) == nil && u.Type == bgp.Withdraw {
					continue // nothing to withdraw
				}
				for _, a := range det.Observe(u) {
					if a.Confidence == detect.High {
						highAlarms++
						t.Errorf("high alarm on legitimate churn (%v fails %v): %v",
							ev.Origin, ev.Primary, a)
					}
				}
			}
		}
		feed(steady) // converge to steady state
		feed(failed) // failover: longer padded backups take over
		feed(steady) // restore: padding count drops back — still no attack
	}
	if highAlarms > 0 {
		t.Fatalf("%d high-confidence false positives on churn", highAlarms)
	}
}

// TestAttackStreamDetectedAfterChurnNoise interleaves legitimate churn
// with a real attack: the detector must stay silent through the noise and
// still fire on the strip.
func TestAttackStreamDetectedAfterChurnNoise(t *testing.T) {
	g := testGraph(t, 800, 92)
	t1 := g.Tier1s()
	victim, attacker := t1[0], t1[1]
	im, err := core.Simulate(g, core.Scenario{Victim: victim, Attacker: attacker, Prepend: 4})
	if err != nil {
		t.Fatal(err)
	}
	if im.PollutedAfter == 0 {
		t.Skip("attack ineffective in this instance")
	}
	monitors := g.TopByDegree(80)
	det := detect.NewDetector(monitors, g)
	prefix := netip.MustParsePrefix("69.171.224.0/20")

	var tm uint64
	feed := func(res *routing.Result) (high int) {
		for _, m := range monitors {
			if p := res.PathOf(m); p != nil {
				tm++
				for _, a := range det.Observe(bgp.Update{
					Time: tm, Monitor: m, Type: bgp.Announce, Prefix: prefix, Path: p,
				}) {
					if a.Confidence == detect.High {
						high++
					}
				}
			}
		}
		return high
	}
	if got := feed(im.Baseline()); got != 0 {
		t.Fatalf("%d high alarms on the honest baseline", got)
	}
	if got := feed(im.Attacked()); got == 0 {
		t.Fatal("attack not detected from the update stream")
	}
}

// TestBinaryStreamPipelineRoundTrip serializes an attack's update stream
// to the compact binary format and re-detects from the decoded copy.
func TestBinaryStreamPipelineRoundTrip(t *testing.T) {
	g := testGraph(t, 600, 93)
	t1 := g.Tier1s()
	im, err := core.Simulate(g, core.Scenario{Victim: t1[0], Attacker: t1[1], Prepend: 3})
	if err != nil {
		t.Fatal(err)
	}
	monitors := g.TopByDegree(50)
	prefix := netip.MustParsePrefix("10.1.0.0/16")

	stream, err := collector.StreamTransition(nil, im.Baseline(), prefix, monitors, 0)
	if err != nil {
		t.Fatal(err)
	}
	changes, err := collector.StreamTransition(im.Baseline(), im.Attacked(), prefix, monitors, uint64(len(stream)))
	if err != nil {
		t.Fatal(err)
	}
	stream = append(stream, changes...)

	var buf []byte
	for _, u := range stream {
		if buf, err = bgp.AppendUpdateBinary(buf, u); err != nil {
			t.Fatal(err)
		}
	}
	// Detect straight off the decoder, as asppserve does: Observe copies
	// what it keeps, so the decoder's reused path buffer is safe to lend.
	dec := bgp.NewStreamDecoder(bytes.NewReader(buf))
	det := detect.NewDetector(monitors, g)
	decoded, alarms := 0, 0
	for {
		var u bgp.Update
		if err := dec.Next(&u); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		decoded++
		alarms += len(det.Observe(u))
	}
	if decoded != len(stream) {
		t.Fatalf("decoded %d of %d updates", decoded, len(stream))
	}
	if im.PollutedAfter > 0 && alarms == 0 {
		t.Error("no alarms after binary round trip of an effective attack")
	}
}
