package serve

import (
	"net/netip"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/detect"
)

func TestIncidentTrackerAggregates(t *testing.T) {
	tr := NewIncidentTracker()
	pfx := netip.MustParsePrefix("10.0.0.0/16")
	for _, a := range []detect.Alarm{
		{Confidence: detect.High, Suspect: 6, Monitor: 9, RemovedPads: 2},
		{Confidence: detect.Possible, Suspect: 7, Monitor: 9},
		{Confidence: detect.High, Suspect: 6, Monitor: 8},
	} {
		tr.Track(AlarmEvent{Prefix: pfx, Alarm: a})
	}

	open := tr.Open()
	if len(open) != 1 {
		t.Fatalf("open incidents = %d, want 1", len(open))
	}
	got := open[0]
	if got.Alarms != 3 || got.HighAlarms != 2 {
		t.Errorf("alarms = %d/%d, want 3/2", got.Alarms, got.HighAlarms)
	}
	if got.PrimeSuspect() != 6 {
		t.Errorf("prime suspect = %v, want 6", got.PrimeSuspect())
	}
	if len(got.Monitors) != 2 {
		t.Errorf("monitors = %d, want 2", len(got.Monitors))
	}
	if want := "incident 10.0.0.0/16: 3 alarms (2 high) from 2 monitors, prime suspect AS6"; got.String() != want {
		t.Errorf("String() = %q, want %q", got.String(), want)
	}
}

// TestIncidentOrderIsDeterministic: prefixes that share an address (a
// covering prefix and its more-specifics) are ordered by length, so Open
// returns one order every time.
func TestIncidentOrderIsDeterministic(t *testing.T) {
	want := []string{
		"10.0.0.0/8", "10.0.0.0/16", "10.0.0.0/24",
		"10.1.0.0/16", "10.1.0.0/20",
		"192.0.2.0/24", "192.0.2.0/25",
		"2001:db8::/32", "2001:db8::/48",
	}
	tr := NewIncidentTracker()
	for i := len(want) - 1; i >= 0; i-- {
		tr.Track(AlarmEvent{Prefix: netip.MustParsePrefix(want[i]), Alarm: detect.Alarm{Suspect: bgp.ASN(i + 1)}})
	}
	for call := 0; call < 50; call++ {
		open := tr.Open()
		if len(open) != len(want) {
			t.Fatalf("open incidents = %d, want %d (one per prefix)", len(open), len(want))
		}
		for i, inc := range open {
			if inc.Prefix.String() != want[i] {
				t.Fatalf("call %d: Open()[%d] = %v, want %s", call, i, inc.Prefix, want[i])
			}
		}
	}
}

func TestIncidentPrimeSuspectTieBreak(t *testing.T) {
	inc := &Incident{Suspects: map[bgp.ASN]int{9: 2, 4: 2, 7: 1}}
	if got := inc.PrimeSuspect(); got != 4 {
		t.Errorf("PrimeSuspect = %v, want 4 (lowest of the tied)", got)
	}
}
