package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// envInfo is where a run was made: numbers from different machines do
// not compare.
type envInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	BuildSecs  float64 `json:"asppbench_build_s"`
}

func environment(root string, seed int64, seconds float64) envInfo {
	e := envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", GoVersion: runtime.Version(), Kernel: "unknown", Commit: "unknown",
		Seed: seed, Seconds: seconds,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(data))
	}
	// The driver's checkout is not a git repository; "unknown" is fine there.
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	git.Dir = root
	git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root)) // never look above the checkout
	if out, err := git.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

func (e envInfo) String() string {
	return fmt.Sprintf("env: nproc %d, GOMAXPROCS %d, cpu %q, %s, kernel %s, commit %s, seed %d, seconds %g",
		e.NProc, e.GOMAXPROCS, e.CPU, e.GoVersion, e.Kernel, e.Commit, e.Seed, e.Seconds)
}
