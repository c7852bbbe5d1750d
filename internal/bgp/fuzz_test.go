package bgp

import (
	"bytes"
	"errors"
	"io"
	"net/netip"
	"testing"
)

func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// FuzzPathCodec throws arbitrary bytes at every decoder in the package and
// asserts the codec contract: a decoder either rejects the input with an
// error or accepts it — and an accepted value must survive an
// encode→decode round trip identically. Nothing may panic.
//
// Run with: go test -run=^$ -fuzz=FuzzPathCodec -fuzztime=10s ./internal/bgp/
func FuzzPathCodec(f *testing.F) {
	// Text updates, withdrawals, junk, and path-only seeds.
	f.Add([]byte("A|12|AS7018|69.171.224.0/20|4134 9318 32934 32934 32934"))
	f.Add([]byte("A|1|100|10.0.0.0/16|100 200 300 300"))
	f.Add([]byte("W|9|AS4134|69.171.224.0/20"))
	f.Add([]byte("A|0|AS1|::/0|1"))
	f.Add([]byte("7018 3356 32934 32934"))
	f.Add([]byte("A|x|AS1|10.0.0.0/8|1"))
	f.Add([]byte("A|1|AS5|10.0.0.1/8|5 1")) // host bits set
	f.Add([]byte{})
	// A valid binary announce record, built by the same encoder under test.
	bin, err := AppendUpdateBinary(nil, Update{
		Type: Announce, Time: 7, Monitor: 7018,
		Prefix: mustPrefix("69.171.224.0/20"),
		Path:   Path{4134, 9318, 32934, 32934},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bin)
	f.Add([]byte{0xA5, 0xBB})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Binary codec: decode → encode → decode must be a fixed point.
		if u, err := decodeFrame(data); err == nil {
			frame, err := AppendUpdateBinary(nil, u)
			if err != nil {
				t.Fatalf("re-encode of accepted binary update failed: %v\nupdate: %s", err, u)
			}
			u2, err := decodeFrame(frame)
			if err != nil {
				t.Fatalf("decode of re-encoded binary update failed: %v\nupdate: %s", err, u)
			}
			assertUpdateEqual(t, "binary", u, u2)
		} else if !errors.Is(err, ErrBadRecord) && !errors.Is(err, io.EOF) {
			t.Fatalf("binary decode error is neither ErrBadRecord nor EOF: %v", err)
		}

		// Text codec: same contract, via the string form.
		if u, err := ParseUpdateText(string(data)); err == nil {
			u2, err := ParseUpdateText(u.String())
			if err != nil {
				t.Fatalf("re-parse of accepted text update failed: %v\nline: %q", err, u.String())
			}
			assertUpdateEqual(t, "text", u, u2)
			// ... and the binary codec carries it unchanged.
			if frame, err := AppendUpdateBinary(nil, u); err == nil {
				u3, err := decodeFrame(frame)
				if err != nil {
					t.Fatalf("binary decode of accepted text update failed: %v\nline: %q", err, u.String())
				}
				assertUpdateEqual(t, "text→binary", u, u3)
			} else if !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("binary encode of accepted text update failed: %v\nline: %q", err, u.String())
			}
		}

		// Bare path parser: accepted paths re-render and re-parse identically,
		// and the path helpers tolerate whatever got accepted.
		if p, err := ParsePath(string(data)); err == nil {
			q, err := ParsePath(p.String())
			if err != nil {
				t.Fatalf("re-parse of accepted path failed: %v\npath: %q", err, p.String())
			}
			if !p.Equal(q) {
				t.Fatalf("path round trip diverged: %v vs %v", p, q)
			}
			if got := p.StripOriginPrepend(0).OriginPrepend(); got != 1 {
				t.Fatalf("StripOriginPrepend(0) left %d origin copies, want 1", got)
			}
			if u := p.Unique(); u.UniqueLen() != len(u) {
				t.Fatalf("Unique() left prepending in %v", u)
			}
		}
	})
}

// FuzzStreamDecoder throws arbitrary byte streams at the framed
// streaming decoder and asserts its hardening contract: every frame
// either decodes (and must then survive an AppendUpdateBinary →
// StreamDecoder round trip identically) or fails with io.EOF (clean
// boundary) or an error wrapping ErrBadRecord — truncations and
// oversized length prefixes included, since ErrTruncated and
// ErrFrameTooLarge both wrap it. Nothing may panic or allocate
// unboundedly: the decoder must refuse a hostile path-length prefix
// before buffering it.
//
// Run with: go test -run=^$ -fuzz=FuzzStreamDecoder -fuzztime=10s ./internal/bgp/
func FuzzStreamDecoder(f *testing.F) {
	var stream []byte
	for _, u := range []Update{
		{Type: Announce, Time: 7, Monitor: 7018, Prefix: mustPrefix("69.171.224.0/20"),
			Path: Path{4134, 9318, 32934, 32934}},
		{Type: Withdraw, Time: 8, Monitor: 4134, Prefix: mustPrefix("10.0.0.0/8")},
		{Type: Announce, Time: 9, Monitor: 3356, Prefix: mustPrefix("2001:db8::/32"),
			Path: Path{3356, 100}},
	} {
		var err error
		stream, err = AppendUpdateBinary(stream, u)
		if err != nil {
			f.Fatal(err)
		}
	}
	f.Add(stream)                 // valid multi-frame stream
	f.Add(stream[:len(stream)-3]) // truncated mid-frame
	f.Add(stream[:1])             // truncated mid-magic
	f.Add([]byte{})
	f.Add([]byte{0xA5, 0xBB})
	// Oversized path-length prefix: a valid header claiming 65535 ASNs.
	over := append([]byte(nil), stream...)
	over[2+15+4], over[2+15+4+1] = 0xFF, 0xFF // v4 frame: magic(2) fixed(15) addr(4) pathlen(2)
	f.Add(over)
	f.Add([]byte("A|12|AS7018|69.171.224.0/20|4134 9318"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewStreamDecoder(bytes.NewReader(data))
		var u Update
		for i := 0; i < 1000; i++ {
			err := dec.Next(&u)
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrBadRecord) {
					t.Fatalf("stream decode error is neither EOF nor ErrBadRecord: %v", err)
				}
				break
			}
			if len(u.Path) > MaxBinaryPathLen {
				t.Fatalf("decoder accepted path of %d ASNs past the cap", len(u.Path))
			}
			frame, err := AppendUpdateBinary(nil, u)
			if err != nil {
				t.Fatalf("re-encode of accepted frame failed: %v\nupdate: %s", err, u)
			}
			u2, err := decodeFrame(frame)
			if err != nil {
				t.Fatalf("decode of re-encoded frame failed: %v\nupdate: %s", err, u)
			}
			assertUpdateEqual(t, "stream", u, u2)
		}
	})
}

func assertUpdateEqual(t *testing.T, codec string, a, b Update) {
	t.Helper()
	if a.Type != b.Type || a.Time != b.Time || a.Monitor != b.Monitor ||
		a.Prefix != b.Prefix || !a.Path.Equal(b.Path) {
		t.Fatalf("%s round trip diverged:\n  first:  %s\n  second: %s", codec, a, b)
	}
}
