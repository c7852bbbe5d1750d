package measure

import (
	"strings"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/collector"
	"aspp/internal/obs"
)

// TestRunSurveyTablePropagationErrorReturned injects an origin whose AS is
// not in the topology, so routing.Propagate fails inside the table
// fan-out. RunSurvey must return the error — historically the worker
// panicked and took the whole process down.
func TestRunSurveyTablePropagationErrorReturned(t *testing.T) {
	g, origins := surveySetup(t, 300, 12)
	bad := origins[0]
	bad.AS = bgp.ASN(1 << 30)
	bad.Announcement.Origin = bad.AS
	bad.Announcement.PerNeighbor = nil
	origins = append(origins, bad)
	cfg := DefaultSurveyConfig()
	cfg.ChurnEvents = 10
	for _, workers := range []int{1, 4} {
		withGOMAXPROCS(t, workers)
		_, err := RunSurvey(g, origins, cfg)
		if err == nil {
			t.Fatalf("workers=%d: invalid origin accepted", workers)
		}
		if !strings.Contains(err.Error(), "propagate") {
			t.Fatalf("workers=%d: err=%v, want a propagation error", workers, err)
		}
	}
}

// TestRunSurveyChurnPropagationErrorReturned breaks only the churn stage:
// every backup origin's recorded primary upstream is replaced by a
// non-neighbor, so the steady-state tables compute fine but the failover
// announcement (λ 0 toward a non-neighbor) fails validation inside the
// churn fan-out.
func TestRunSurveyChurnPropagationErrorReturned(t *testing.T) {
	g, origins := surveySetup(t, 300, 12)
	found := false
	for i := range origins {
		if origins[i].Style == collector.StyleBackup && origins[i].Primary != 0 {
			origins[i].Primary = bgp.ASN(1 << 30)
			found = true
		}
	}
	if !found {
		t.Skip("no backup-style origins in this topology draw")
	}
	cfg := DefaultSurveyConfig()
	cfg.ChurnEvents = 10
	_, err := RunSurvey(g, origins, cfg)
	if err == nil {
		t.Fatal("non-neighbor primary accepted")
	}
	if !strings.Contains(err.Error(), "churn propagate") {
		t.Fatalf("err=%v, want a churn propagation error", err)
	}
}

// TestRunSurveyCounters checks the telemetry plumbing: the table leg is
// one propagation per origin and the churn leg one per event, nothing
// else, each emitting its monitors' cone and not the graph, and the
// churn-update counter matches the result's own total.
func TestRunSurveyCounters(t *testing.T) {
	g, origins := surveySetup(t, 300, 12)
	cfg := DefaultSurveyConfig()
	cfg.ChurnEvents = 25
	cfg.Counters = new(obs.Counters)
	res, err := RunSurvey(g, origins, cfg)
	if err != nil {
		t.Fatalf("RunSurvey: %v", err)
	}
	events := collector.PlanChurn(origins, cfg.ChurnEvents, cfg.Seed)
	s := cfg.Counters.Snapshot()
	props := int64(len(origins) + len(events))
	if s.BasePropagations != props || s.AttackPropagations() != 0 {
		t.Fatalf("prop_base=%d attack legs=%d, want %d (origins + churn events) and nothing else", s.BasePropagations, s.AttackPropagations(), props)
	}
	if s.RowsDown < props || s.RowsDown >= props*int64(g.NumASes())/4 {
		t.Fatalf("rows_down=%d over %d propagations on %d ASes, want a monitors' cone each, not the graph", s.RowsDown, props, g.NumASes())
	}
	if s.ChurnUpdates != int64(res.Updates) {
		t.Fatalf("ChurnUpdates=%d, want %d (res.Updates)", s.ChurnUpdates, res.Updates)
	}
}
