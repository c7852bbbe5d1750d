package main

import (
	"context"
	"strings"
	"testing"
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
