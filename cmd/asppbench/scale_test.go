package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"aspp/internal/topology"
)

// survey80kSHA256 is the sha256 of `asppbench -exp fig5,fig6 -topo
// <internet80k serial-2>` at cec9da6, where the survey propagated every
// origin over the whole graph (68 s); EXPERIMENTS.md, "Tables at vantage
// points".
const survey80kSHA256 = "9a29bcd27d92c2d9d7d8d7f767f82c7c5cda31c6dd68da7a0a5dc0c5e67f6f30"

// TestScale80kSurveyDigest runs the usage survey on internet80k — 70k
// origins, each propagated over its monitors' provider cone — and holds the
// output to the bytes the whole-graph survey printed. Gated behind
// ASPP_SCALE=1 (make scale-smoke).
func TestScale80kSurveyDigest(t *testing.T) {
	if os.Getenv("ASPP_SCALE") == "" {
		t.Skip("80k scale run gated behind ASPP_SCALE=1 (make scale-smoke)")
	}
	g, err := topology.Generate(topology.InternetGenConfig(topology.Internet80kASes))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "internet80k.serial2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	if err := topology.WriteSerial2(w, g); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out := goldenRun(t, "-exp", "fig5,fig6", "-topo", path)
	if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != survey80kSHA256 {
		t.Errorf("fig5,fig6 on internet80k: sha256 %s, the whole-graph survey printed %s", got, survey80kSHA256)
	}
}
