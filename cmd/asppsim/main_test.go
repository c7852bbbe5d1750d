package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunAutoPair(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-n", "400", "-lambda", "3"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"topology:", "before:", "after:", "captured:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunExplicitPairAndViolate(t *testing.T) {
	var sb strings.Builder
	// Use the well-known small fixture via a temp serial-2 file.
	dir := t.TempDir()
	path := filepath.Join(dir, "rels.txt")
	rels := "10|30|-1\n10|40|-1\n30|100|-1\n40|70|-1\n"
	if err := os.WriteFile(path, []byte(rels), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), []string{"-topo", path, "-victim", "100", "-attacker", "40",
		"-lambda", "4", "-violate"}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "violate=true") {
		t.Errorf("violate flag not reflected:\n%s", sb.String())
	}
}

func TestRunBadInputs(t *testing.T) {
	updates := filepath.Join(t.TempDir(), "updates.log")
	for what, args := range map[string][]string{
		"bad victim":                {"-victim", "bogus"},
		"missing topo file":         {"-topo", "/nonexistent/file"},
		"λ=0":                       {"-n", "400", "-lambda", "0"},
		"-monitors 0":               {"-n", "300", "-updates-out", updates, "-monitors", "0"},
		"-monitors -1":              {"-n", "300", "-updates-out", updates, "-monitors", "-1"},
		"-monitors -1, no stream":   {"-n", "300", "-monitors", "-1"},
		"-monitors below int range": {"-n", "300", "-monitors", "-99999999999999999999"},
		"-show -1":                  {"-n", "300", "-show", "-1"},
	} {
		var sb strings.Builder
		if err := run(context.Background(), args, &sb); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
	// A count above the topology watches every AS.
	var sb strings.Builder
	if err := run(context.Background(), []string{"-n", "300", "-updates-out", updates, "-monitors", "301"}, &sb); err != nil {
		t.Errorf("-monitors 301 on 300 ASes: %v", err)
	}
}

func TestRunUpdatesOut(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "updates.log")
	var sb strings.Builder
	err := run(context.Background(), []string{"-n", "400", "-lambda", "3", "-updates-out", path, "-monitors", "40"}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("stream not written: %v", err)
	}
	if !strings.HasPrefix(string(data), "A|1|AS") {
		t.Errorf("stream malformed:\n%s", string(data)[:min(200, len(data))])
	}
	// The stream must have both the steady state and attack-era changes.
	lines := strings.Count(string(data), "\n")
	if lines < 41 {
		t.Errorf("stream has only %d lines; expected steady state + changes", lines)
	}
}
