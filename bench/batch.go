package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"aspp/internal/topology"
)

// The two batch workloads run asppbench, the program a reader
// reproducing the paper runs, as a subprocess and time it from outside.

var (
	figs4kExps   = []string{"fig1", "table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "compare", "defense", "inference", "mitigation", "susceptibility"}
	sweep80kExps = []string{"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "susceptibility"}
)

// pinned holds the committed output digests of the batch workloads at
// seed 1 and the structure digest of the canonical internet80k graph.
// Gao–Rexford routing has a unique stable state, so the TSV is bit-stable
// across engines, shard counts and runs, and exact equality is a sound
// check.
type pinned struct {
	Seed        int64  `json:"seed"`
	Internet80k string `json:"internet80k_digest"`
	Workloads   map[string]struct {
		SHA256   string            `json:"sha256"`
		Sections map[string]string `json:"sections"`
	} `json:"workloads"`
}

//go:embed testdata/digests.json
var pinnedJSON []byte

func loadPinned() (pinned, error) {
	var p pinned
	err := json.Unmarshal(pinnedJSON, &p)
	return p, err
}

// procRun is one timed subprocess.
type procRun struct {
	wall  time.Duration // exec to exit
	rssMB float64       // ru_maxrss
	out   []byte
	err   error // non-nil on a start failure or non-zero exit
}

// runProc starts bin with args, reads its stdout through a pipe until
// EOF, waits for it to exit and reports the timings. Cancelling ctx kills
// the process; runProc returns only once it has ended.
func runProc(ctx context.Context, bin string, args ...string) procRun {
	var r procRun
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		r.err = err
		return r
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		r.err = err
		return r
	}
	var buf bytes.Buffer
	chunk := make([]byte, 64<<10)
	for {
		n, rerr := pipe.Read(chunk)
		buf.Write(chunk[:n])
		if rerr != nil {
			break
		}
	}
	r.err = cmd.Wait()
	r.wall = time.Since(t0)
	r.out = buf.Bytes()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru != nil {
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r
}

// sections splits asppbench output at its "### name" headers and returns
// each section's sha256.
func sections(out []byte) map[string]string {
	digests := make(map[string]string)
	var name string
	h := sha256.New()
	flush := func() {
		if name != "" {
			digests[name] = hex.EncodeToString(h.Sum(nil))
		}
		h.Reset()
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "### "); ok {
			flush()
			name = rest
		}
		h.Write(sc.Bytes())
		h.Write([]byte{'\n'})
	}
	flush()
	return digests
}

func sha256hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// batchSpec describes one asppbench workload.
type batchSpec struct {
	name    string
	exps    []string
	repSecs float64 // what one run costs on the 2-core build machine; sizes the repetitions
	// seeds is how many asppbench seeds one invocation covers: harness
	// seed S runs -seed S, S+1000, S+2000, … in turn, and wraps around.
	seeds int
	// setup prepares the inputs and returns the arguments of a timed run
	// at the given asppbench seed.
	setup func(ctx context.Context, h *harness) (func(seed int64) []string, error)
}

var batchSpecs = map[string]batchSpec{
	// At n=4000 the topology and the sampled pairs change with the seed,
	// and the wall clock with them (2.4-3.1 s over seeds 1-10, while one
	// seed repeats within 1 %). One invocation therefore covers five
	// seeds, so that two invocations agree; the later runs go over the
	// same seeds again, which also checks that their output repeats.
	"figs4k": {
		name: "figs4k", exps: figs4kExps, repSecs: 3, seeds: 5,
		// asppbench generates its own topology, so there are no inputs to
		// prepare; set-up is one throw-away exec (topology generation and
		// the cheapest experiment) that leaves the binary resident before
		// the timed runs.
		setup: func(ctx context.Context, h *harness) (func(int64) []string, error) {
			n := fmt.Sprint(h.scale.figsN)
			if r := runProc(ctx, h.asppbench, "-exp", "table1", "-n", n); r.err != nil {
				return nil, fmt.Errorf("warm-up exec: %w", r.err)
			}
			return func(seed int64) []string {
				return []string{"-exp", "all", "-n", n, "-seed", fmt.Sprint(seed)}
			}, nil
		},
	},
	// On the fixed internet80k graph the seed moves the wall clock by
	// less than the noise does (fig11's seed-free sibling sweep is over
	// half of it), so every run uses the harness seed.
	"sweep80k": {
		name: "sweep80k", exps: sweep80kExps, repSecs: 5.2, seeds: 1,
		setup: func(ctx context.Context, h *harness) (func(int64) []string, error) {
			path, _, err := h.writeSweepTopology()
			if err != nil {
				return nil, err
			}
			return func(seed int64) []string {
				return []string{"-exp", strings.Join(sweep80kExps, ","), "-topo", path, "-seed", fmt.Sprint(seed)}
			}, nil
		},
	},
}

// writeSweepTopology generates the Internet-scale graph of the sweep
// workload (the canonical internet80k unless scaled down for the smoke
// test), checks its structure digest and writes it as serial-2.
func (h *harness) writeSweepTopology() (string, *topology.Graph, error) {
	g, err := topology.Generate(topology.InternetGenConfig(h.scale.sweepN))
	if err != nil {
		return "", nil, err
	}
	if h.scale.sweepN == topology.Internet80kASes {
		want := h.pinned.Internet80k
		if got := fmt.Sprintf("%#x", topology.Digest(g)); got != want {
			return "", nil, fmt.Errorf("internet80k structure digest %s, pinned %s", got, want)
		}
	}
	path := filepath.Join(h.outDir, "sweep.serial2") // one file, rewritten by every set-up
	f, err := os.Create(path)
	if err != nil {
		return "", nil, err
	}
	w := bufio.NewWriter(f)
	if err := topology.WriteSerial2(w, g); err != nil {
		f.Close()
		return "", nil, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", nil, err
	}
	return path, g, f.Close()
}

// runBatch measures one asppbench workload: set-up several times, then
// the timed runs, each checked section by section.
func (h *harness) runBatch(ctx context.Context, spec batchSpec, seed int64) (*result, error) {
	res := newResult()
	var args func(int64) []string
	var setups []float64
	for begun := time.Now(); h.scale.setUpAgain(len(setups), time.Since(begun)); {
		t0 := time.Now()
		a, err := spec.setup(ctx, h)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", spec.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		args = a
	}

	reps := h.scale.batchReps
	if reps == 0 {
		reps = max(1, int(h.seconds/spec.repSecs+0.5))
	}
	// perSeed[k] collects the runs at asppbench seed seed+1000k.
	type seedRuns struct {
		walls    []float64
		sections map[string]string
		sha      string
		bytes    int
	}
	perSeed := make([]seedRuns, min(spec.seeds, reps))
	var inOrder, rss []float64
	pin := h.pinned.Workloads[spec.name]
	for i := 0; i < reps; i++ {
		sr := &perSeed[i%len(perSeed)]
		runSeed := seed + 1000*int64(i%len(perSeed))
		r := runProc(ctx, h.asppbench, args(runSeed)...)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		sr.walls = append(sr.walls, r.wall.Seconds())
		inOrder = append(inOrder, r.wall.Seconds())
		rss = append(rss, r.rssMB)
		got, sum := sections(r.out), sha256hex(r.out)
		if sr.sections == nil {
			sr.sections, sr.sha, sr.bytes = got, sum, len(r.out)
		}
		pinnedRun := runSeed == h.pinned.Seed && !h.scale.smoke && pin.SHA256 != ""
		before := res.Failed
		for _, exp := range spec.exps {
			res.Attempted++
			switch d, ok := got[exp]; {
			case r.err != nil:
				res.fail("%s -seed %d: %v", spec.name, runSeed, r.err)
			case !ok:
				res.fail("%s -seed %d: section %s missing", spec.name, runSeed, exp)
			case d != sr.sections[exp]:
				res.fail("%s -seed %d: section %s differs between two runs", spec.name, runSeed, exp)
			case pinnedRun && d != pin.Sections[exp]:
				res.fail("%s -seed %d: section %s does not match bench/testdata/digests.json", spec.name, runSeed, exp)
			}
		}
		// Every section can match while the output as a whole does not
		// (a section nobody asked for): that is one more failure.
		if res.Failed == before && (sum != sr.sha || pinnedRun && sum != pin.SHA256) {
			res.fail("%s -seed %d: output sha256 %s differs from the seed's first run or from bench/testdata/digests.json", spec.name, runSeed, sum)
		}
	}
	res.exact["sha256"] = perSeed[0].sha
	res.info("tsv_bytes", float64(perSeed[0].bytes), "B")

	// Within a seed the fastest run stands for it: interference on the
	// shared build machine only ever adds time (three sweep80k runs spread
	// 4 % in their median and under 1 % in their minimum). Across seeds it
	// is the lower quartile: the work varies with the seed, and it is the
	// heavy seeds that vary (24 seeds of figs4k: most within 3 % of 2.7 s,
	// a tail up to 3.3 s).
	var walls []float64
	for _, sr := range perSeed {
		walls = append(walls, minOf(sr.walls))
	}
	wall := percentile(sorted(walls), 0.25)
	res.note("%s: %d timed runs took %.3f s, the fastest of each of %d seed(s) %.3f s, first output sha256 %s", spec.name, reps, inOrder, len(perSeed), walls, perSeed[0].sha)
	res.set("wall_s", wall, "s")
	// A batch program's answer to its input is its complete output.
	res.set("result_latency_ms", 1000*wall, "ms")
	res.set("peak_rss_mb", median(rss), "MB")
	res.set("setup_s", minOf(setups), "s")
	return res, nil
}
