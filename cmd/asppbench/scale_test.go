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

// TestScale80kSurveyDigest runs experiments on internet80k and holds each
// output to the bytes an older, slower code path printed:
//   - fig5,fig6, the usage survey — 70k origins, each propagated over its
//     monitors' provider cone — to the whole-graph survey at cec9da6 (68 s;
//     EXPERIMENTS.md, "Tables at vantage points");
//   - mitigation, cautious adoption on the full kernel, to the message-level
//     reference engine's quarantine mode at fd7ec03 (4.1 s; EXPERIMENTS.md,
//     "Cautious adoption on the full kernel").
//
// Gated behind ASPP_SCALE=1 (make scale-smoke).
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
	for _, tc := range []struct{ exp, sha256 string }{
		{"fig5,fig6", "9a29bcd27d92c2d9d7d8d7f767f82c7c5cda31c6dd68da7a0a5dc0c5e67f6f30"},
		{"mitigation", "3622bb6f498457c7f4655341e2eefd0b5c456ebe8b29b15bc572eb4eb1a4a171"},
	} {
		t.Run(tc.exp, func(t *testing.T) {
			out := goldenRun(t, "-exp", tc.exp, "-topo", path)
			if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != tc.sha256 {
				t.Errorf("-exp %s on internet80k: sha256 %s, want %s", tc.exp, got, tc.sha256)
			}
		})
	}
}
