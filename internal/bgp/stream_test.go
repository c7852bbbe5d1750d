package bgp

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func streamFixture(t testing.TB) []Update {
	t.Helper()
	return []Update{
		{Type: Announce, Time: 1, Monitor: 7018, Prefix: mustPrefix("69.171.224.0/20"),
			Path: Path{4134, 9318, 32934, 32934, 32934}},
		{Type: Withdraw, Time: 2, Monitor: 4134, Prefix: mustPrefix("10.0.0.0/8")},
		{Type: Announce, Time: 3, Monitor: 3356, Prefix: mustPrefix("2001:db8::/32"),
			Path: Path{3356, 100}},
		{Type: Announce, Time: 4, Monitor: 1, Prefix: mustPrefix("192.0.2.0/24"),
			Path: Path{1}},
	}
}

// decodeFrame decodes the first frame of raw on a fresh decoder.
func decodeFrame(raw []byte) (Update, error) {
	var u Update
	err := NewStreamDecoder(bytes.NewReader(raw)).Next(&u)
	return u, err
}

// assertStreamRoundTrip encodes updates back to back and decodes them
// through one decoder, whose reused path buffer must not leak one frame
// into the next; the stream must then end in a clean io.EOF.
func assertStreamRoundTrip(t *testing.T, updates []Update) {
	t.Helper()
	var buf []byte
	var err error
	for _, u := range updates {
		if buf, err = AppendUpdateBinary(buf, u); err != nil {
			t.Fatalf("AppendUpdateBinary(%s): %v", u, err)
		}
	}
	dec := NewStreamDecoder(bytes.NewReader(buf))
	var u Update
	for i, want := range updates {
		if err := dec.Next(&u); err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		assertUpdateEqual(t, "stream", want, u)
	}
	if err := dec.Next(&u); err != io.EOF {
		t.Fatalf("Next at end = %v, want io.EOF", err)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	assertStreamRoundTrip(t, streamFixture(t))
}

// TestStreamWireLayout pins the frame layout byte for byte: with one
// encoder and one decoder a round trip alone would not notice both sides
// drifting together.
func TestStreamWireLayout(t *testing.T) {
	fix := streamFixture(t)
	for i, want := range [][]byte{
		{0xA5, 0xBB, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0x1B, 0x6A, 4, 20, 69, 171, 224, 0, 0, 5,
			0, 0, 0x10, 0x26, 0, 0, 0x24, 0x66, 0, 0, 0x80, 0xA6, 0, 0, 0x80, 0xA6, 0, 0, 0x80, 0xA6},
		{0xA5, 0xBB, 2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0x10, 0x26, 4, 8, 10, 0, 0, 0, 0, 0},
		{0xA5, 0xBB, 1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0x0D, 0x1C, 6, 32,
			0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0x0D, 0x1C, 0, 0, 0, 100},
	} {
		got, err := AppendUpdateBinary(nil, fix[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame of %s:\ngot  %x\nwant %x", fix[i], got, want)
		}
		u, err := decodeFrame(want)
		if err != nil {
			t.Fatal(err)
		}
		assertUpdateEqual(t, "literal frame", fix[i], u)
	}
}

func TestStreamTruncation(t *testing.T) {
	updates := streamFixture(t)[:2]
	var full []byte
	var err error
	for _, u := range updates {
		full, err = AppendUpdateBinary(full, u)
		if err != nil {
			t.Fatal(err)
		}
	}
	firstLen := 0
	{
		b, _ := AppendUpdateBinary(nil, updates[0])
		firstLen = len(b)
	}
	for cut := 0; cut < len(full); cut++ {
		dec := NewStreamDecoder(bytes.NewReader(full[:cut]))
		var u Update
		var lastErr error
		for lastErr = dec.Next(&u); lastErr == nil; lastErr = dec.Next(&u) {
		}
		switch {
		case cut == 0 || cut == firstLen:
			// Cut at a frame boundary: a clean end of stream.
			if lastErr != io.EOF {
				t.Fatalf("cut %d (boundary): %v, want io.EOF", cut, lastErr)
			}
		default:
			if !errors.Is(lastErr, ErrTruncated) {
				t.Fatalf("cut %d: %v, want ErrTruncated", cut, lastErr)
			}
			if !errors.Is(lastErr, ErrBadRecord) {
				t.Fatalf("cut %d: ErrTruncated must wrap ErrBadRecord, got %v", cut, lastErr)
			}
		}
	}
}

func TestStreamOversizedFrame(t *testing.T) {
	u := streamFixture(t)[0]
	frame, err := AppendUpdateBinary(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	// The path-length field is the last 2 bytes of the fixed header,
	// immediately before the path body. Corrupt it to a huge count.
	off := len(frame) - 4*len(u.Path) - 2
	frame[off], frame[off+1] = 0xFF, 0xFF
	dec := NewStreamDecoder(bytes.NewReader(frame))
	var got Update
	err = dec.Next(&got)
	if !errors.Is(err, ErrFrameTooLarge) || !errors.Is(err, ErrBadRecord) {
		t.Fatalf("oversized frame: %v, want ErrFrameTooLarge wrapping ErrBadRecord", err)
	}
	// The encoder refuses to build such a frame in the first place.
	long := Update{Type: Announce, Time: 1, Monitor: 1, Prefix: mustPrefix("10.0.0.0/8"),
		Path: make(Path, MaxBinaryPathLen+1)}
	for i := range long.Path {
		long.Path[i] = ASN(i%100 + 1)
	}
	if _, err := AppendUpdateBinary(nil, long); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("AppendUpdateBinary oversized path: %v, want ErrFrameTooLarge", err)
	}
}

func TestStreamGarbage(t *testing.T) {
	dec := NewStreamDecoder(strings.NewReader("definitely not a frame stream at all..."))
	var u Update
	err := dec.Next(&u)
	if err == nil || !errors.Is(err, ErrBadRecord) {
		t.Fatalf("garbage stream: %v, want ErrBadRecord wrap", err)
	}
}

var streamSink Update

// TestStreamDecoderZeroAlloc pins the steady-state decode loop at zero
// allocations: the decoder's path buffer and the caller's Update are
// reused across frames.
func TestStreamDecoderZeroAlloc(t *testing.T) {
	u := streamFixture(t)[0]
	frame, err := AppendUpdateBinary(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 20000
	buf := bytes.Repeat(frame, frames)
	dec := NewStreamDecoder(bytes.NewReader(buf))
	if err := dec.Next(&streamSink); err != nil { // warm the path buffer
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if err := dec.Next(&streamSink); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("warmed Next allocates %.1f objects per frame, want 0", avg)
	}
}

func TestBinaryRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func() bool {
		u := randomUpdate(rng, uint64(rng.Intn(1<<30)))
		frame, err := AppendUpdateBinary(nil, u)
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		got, err := decodeFrame(frame)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		return got.Time == u.Time && got.Monitor == u.Monitor &&
			got.Type == u.Type && got.Prefix == u.Prefix && got.Path.Equal(u.Path)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestBinaryStreamRoundTrip: 50 random frames, both families, withdrawals
// among them.
func TestBinaryStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	updates := make([]Update, 50)
	for i := range updates {
		updates[i] = randomUpdate(rng, uint64(i))
	}
	assertStreamRoundTrip(t, updates)
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := decodeFrame([]byte{0xde, 0xad, 0xbe, 0xef}); !errors.Is(err, ErrBadRecord) {
		t.Errorf("decoding garbage: %v, want ErrBadRecord", err)
	}
	// Truncated record: valid magic then nothing.
	if _, err := decodeFrame([]byte{0xa5, 0xbb}); !errors.Is(err, ErrTruncated) {
		t.Errorf("decoding truncated record: %v, want ErrTruncated", err)
	}
}

func TestBinaryDecoderRobustToCorruption(t *testing.T) {
	// Flipping any byte of a valid record must produce a clean error or a
	// (different) valid decode — never a panic or a hang.
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 300; trial++ {
		u := randomUpdate(rng, uint64(trial))
		raw, err := AppendUpdateBinary(nil, u)
		if err != nil {
			t.Fatal(err)
		}
		pos := rng.Intn(len(raw))
		raw[pos] ^= byte(1 + rng.Intn(255))
		got, err := decodeFrame(raw)
		if err == nil {
			if verr := got.Validate(); verr != nil {
				t.Fatalf("trial %d: corrupt record decoded to invalid update: %v", trial, verr)
			}
		} else if !errors.Is(err, ErrBadRecord) {
			t.Fatalf("trial %d: corrupt record fails with %v, want an ErrBadRecord wrap", trial, err)
		}
	}
}
