package topology

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestInternet80kDigest is the scale fixture: the canonical internet80k
// graph (n=80000, Seed=1) is pinned by structure digest, by an FNV-1a
// hash of the registration-order ASN stream and by the sha256 of its
// serial-2 file (the bytes sweeps read with -topo), so Internet-scale
// runs are reproducible without committing the ~290k-link graph. Any
// change to the generator's draw sequence, the ASN pool, or the
// InternetGenConfig calibration shows up here first. Regenerate the
// constants ONLY for a deliberate, documented topology change — every
// committed 80k result (bench/testdata/digests.json, EXPERIMENTS.md) is
// tied to them.
func TestInternet80kDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("80k generation under -short")
	}
	const (
		wantDigest  = uint64(0x661d6d375e6cd96b)
		wantEnumFNV = uint64(0x8127eda9c25b7bb9)
		wantSerial2 = "9264fce5b6cda0eca15baee1572f1b6615e058f991e9ac499dea38bdbee0150c"
	)
	g, err := Generate(InternetGenConfig(Internet80kASes))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if got := Digest(g); got != wantDigest {
		t.Fatalf("internet80k Digest = %#x, want %#x", got, wantDigest)
	}
	// The structure digest is registration-order independent by design,
	// so additionally pin the enum stream: every seeded draw stream in
	// the experiment drivers iterates ASNs() in this order.
	h := uint64(fnvOffset64)
	for _, a := range g.ASNs() {
		h = fnvU32(h, uint32(a))
	}
	if h != wantEnumFNV {
		t.Fatalf("internet80k enum-order FNV = %#x, want %#x", h, wantEnumFNV)
	}
	sum := sha256.New()
	if err := WriteSerial2(sum, g); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != wantSerial2 {
		t.Fatalf("internet80k serial-2 sha256 = %s, want %s", got, wantSerial2)
	}
}

// TestInternetGenConfigStats pins the CAIDA-facing calibration of the
// internet80k preset with loose structural bounds (exact reproducibility
// is TestInternet80kDigest's job).
func TestInternetGenConfigStats(t *testing.T) {
	if testing.Short() {
		t.Skip("80k generation under -short")
	}
	g, err := Generate(InternetGenConfig(Internet80kASes))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	s := Stats(g)
	if s.ASes != Internet80kASes {
		t.Fatalf("ASes = %d, want %d", s.ASes, Internet80kASes)
	}
	if s.Tier1 != 16 {
		t.Fatalf("Tier1 = %d, want 16", s.Tier1)
	}
	if lpa := float64(s.Links) / float64(s.ASes); lpa < 2.5 || lpa > 4.5 {
		t.Fatalf("links/AS = %.2f, want within CAIDA-like [2.5, 4.5]", lpa)
	}
	if s.MeanDegree < 5 || s.MeanDegree > 9 {
		t.Fatalf("mean degree = %.2f, want [5, 9]", s.MeanDegree)
	}
	if stubFrac := float64(s.Stubs) / float64(s.ASes); stubFrac < 0.80 || stubFrac > 0.92 {
		t.Fatalf("stub fraction = %.3f, want [0.80, 0.92]", stubFrac)
	}
	if s.MeanProvidersPerNonT1 < 1.8 || s.MeanProvidersPerNonT1 > 2.6 {
		t.Fatalf("mean providers = %.2f, want [1.8, 2.6]", s.MeanProvidersPerNonT1)
	}
	if s.MaxDegree < 300 {
		t.Fatalf("max degree = %d, want heavy tail (>= 300)", s.MaxDegree)
	}
}

// TestDigestSerial2RoundTrip: the digest depends on logical structure
// only, so it survives a serial-2 write/read round trip even though
// ReadSerial2 registers ASes in a different order than the generator.
func TestDigestSerial2RoundTrip(t *testing.T) {
	g, err := Generate(DefaultGenConfig(400))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteSerial2(&buf, g); err != nil {
		t.Fatalf("WriteSerial2: %v", err)
	}
	g2, err := ReadSerial2(&buf)
	if err != nil {
		t.Fatalf("ReadSerial2: %v", err)
	}
	if Digest(g) != Digest(g2) {
		t.Fatalf("digest changed across round trip: %#x -> %#x", Digest(g), Digest(g2))
	}
	// Sensitivity: a different seed must not collide.
	cfg := DefaultGenConfig(400)
	cfg.Seed = 2
	g3, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate seed 2: %v", err)
	}
	if Digest(g) == Digest(g3) {
		t.Fatalf("digests collide across seeds: %#x", Digest(g))
	}
}

// TestASNSpaceValidation: the legacy 16-bit pool stays the zero-value
// default (existing seeded graphs depend on it), caps N at half the
// pool, and an explicit wider pool lifts the cap.
func TestASNSpaceValidation(t *testing.T) {
	legacy := DefaultGenConfig(4000)
	if legacy.ASNSpace != 0 {
		t.Fatalf("DefaultGenConfig.ASNSpace = %d, want 0 (legacy pool)", legacy.ASNSpace)
	}
	if err := legacy.Validate(); err != nil {
		t.Fatalf("legacy n=4000 must validate: %v", err)
	}
	tooBig := DefaultGenConfig(40000)
	if err := tooBig.Validate(); err == nil {
		t.Fatal("n=40000 on the 16-bit pool must fail validation")
	}
	tooBig.ASNSpace = 400000
	if err := tooBig.Validate(); err != nil {
		t.Fatalf("widened pool must validate: %v", err)
	}
	if err := InternetGenConfig(Internet80kASes).Validate(); err != nil {
		t.Fatalf("InternetGenConfig(80k) must validate: %v", err)
	}
	// The pool may reach the top of the 32-bit ASN range, not pass it: a
	// draw past it would wrap to ASN 0 or onto another draw. (An int
	// narrower than 64 bits cannot hold such a pool.)
	if strconv.IntSize == 64 {
		top := uint64(math.MaxUint32)
		wide := InternetGenConfig(Internet80kASes)
		if wide.ASNSpace = int(top); wide.Validate() != nil {
			t.Fatalf("ASNSpace=%d (the whole 32-bit range) must validate", wide.ASNSpace)
		}
		if wide.ASNSpace = int(top + 1); wide.Validate() == nil {
			t.Fatalf("ASNSpace=%d (past the 32-bit range) must fail validation", wide.ASNSpace)
		}
	}
}

// TestGraphMemoryBytes: the CSR footprint gauge is positive, grows with
// the graph, and covers at least the two adjacency mirrors.
func TestGraphMemoryBytes(t *testing.T) {
	var nilG *Graph
	if nilG.MemoryBytes() != 0 {
		t.Fatal("nil graph must report 0 bytes")
	}
	small, err := Generate(DefaultGenConfig(100))
	if err != nil {
		t.Fatalf("Generate small: %v", err)
	}
	big, err := Generate(DefaultGenConfig(1000))
	if err != nil {
		t.Fatalf("Generate big: %v", err)
	}
	sb, bb := small.MemoryBytes(), big.MemoryBytes()
	if sb <= 0 || bb <= sb {
		t.Fatalf("footprints not growing: small=%d big=%d", sb, bb)
	}
	// adj (4 B) + asnAdj (4 B) per adjacency entry is the floor.
	if min := int64(len(big.adj)) * 8; bb < min {
		t.Fatalf("big graph %d bytes below adjacency floor %d", bb, min)
	}
}

// TestOpenInternet: the commands' one way to a topology reads the file it
// is given and generates only when given none.
func TestOpenInternet(t *testing.T) {
	cfg := DefaultGenConfig(200)
	cfg.Seed = 4
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rels.txt")
	var buf bytes.Buffer
	if err := WriteSerial2(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Open(path, DefaultGenConfig(999)) // the file wins over the generator config
	if err != nil || loaded.NumASes() != 200 || loaded.NumLinks() != g.NumLinks() {
		t.Errorf("Open(file): %v, err %v; want the 200-AS topology written", loaded, err)
	}
	generated, err := Open("", cfg)
	if err != nil || Digest(generated) != Digest(g) {
		t.Errorf("Open(\"\"): err %v; want what Generate draws", err)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing"), cfg); err == nil {
		t.Error("missing file accepted")
	}
}
