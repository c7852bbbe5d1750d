package bgp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
)

// The binary (MRT-lite) codec: length-prefixed frames with fixed-width
// big-endian integers, for update streams between processes. One encoder,
// AppendUpdateBinary, allocation-free on a reused buffer (cmd/asppload),
// and one decoder, StreamDecoder, with reusable buffers for long-lived
// ingest connections (cmd/asppserve). The decoder reads untrusted input:
//
//   - a path-length cap: the pathlen length prefix is attacker-controlled
//     on a network socket, so frames above MaxBinaryPathLen are rejected
//     with ErrFrameTooLarge instead of being allocated;
//   - truncation classification: a stream that ends mid-frame fails with
//     ErrTruncated (a lost peer, worth logging differently from garbage),
//     while a clean end at a frame boundary is io.EOF.
//
// Both sentinel errors wrap ErrBadRecord, so callers that only care about
// "malformed input" keep working unchanged.

// Frame layout (all integers big-endian):
//
//	magic   uint16  0xA5BB
//	type    uint8   1=announce 2=withdraw
//	time    uint64
//	monitor uint32
//	family  uint8   4 or 6
//	plen    uint8   prefix bits
//	addr    4 or 16 bytes
//	pathlen uint16  number of ASNs (0 for withdraw)
//	path    pathlen * uint32
const binaryMagic = 0xA5BB

// MaxBinaryPathLen caps the AS-path length the binary codec accepts, in
// ASNs. Real AS paths run a few dozen hops even with heavy prepending
// (the paper's Fig. 6 tail ends near 40); 1024 leaves two orders of
// magnitude of headroom while bounding the per-frame buffer an untrusted
// length prefix can demand.
const MaxBinaryPathLen = 1024

// ErrFrameTooLarge is wrapped by decode errors caused by a frame whose
// path-length prefix exceeds MaxBinaryPathLen. It wraps ErrBadRecord.
var ErrFrameTooLarge = fmt.Errorf("%w: oversized frame", ErrBadRecord)

// ErrTruncated is wrapped by decode errors caused by a stream ending in
// the middle of a frame. It wraps ErrBadRecord.
var ErrTruncated = fmt.Errorf("%w: truncated frame", ErrBadRecord)

// AppendUpdateBinary appends the binary encoding of u to dst and returns
// the extended slice. It allocates only when dst lacks capacity, so a
// sender reusing one buffer encodes frames allocation-free.
func AppendUpdateBinary(dst []byte, u Update) ([]byte, error) {
	if err := u.Validate(); err != nil {
		return dst, err
	}
	if len(u.Path) > MaxBinaryPathLen {
		return dst, fmt.Errorf("%w: path length %d > %d", ErrFrameTooLarge, len(u.Path), MaxBinaryPathLen)
	}
	addr := u.Prefix.Addr()
	var raw []byte
	var family byte
	if addr.Is4() {
		b := addr.As4()
		raw = b[:]
		family = 4
	} else {
		b := addr.As16()
		raw = b[:]
		family = 6
	}
	dst = binary.BigEndian.AppendUint16(dst, binaryMagic)
	dst = append(dst, byte(u.Type))
	dst = binary.BigEndian.AppendUint64(dst, u.Time)
	dst = binary.BigEndian.AppendUint32(dst, uint32(u.Monitor))
	dst = append(dst, family, byte(u.Prefix.Bits()))
	dst = append(dst, raw...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(u.Path)))
	for _, a := range u.Path {
		dst = binary.BigEndian.AppendUint32(dst, uint32(a))
	}
	return dst, nil
}

// StreamDecoder decodes a sequence of binary update frames from a reader
// with reusable internal buffers: a warmed decoder reads frames without
// allocating. Not safe for concurrent use.
type StreamDecoder struct {
	r    *bufio.Reader
	path Path     // reusable path storage, handed out via Update.Path
	raw  []byte   // reusable frame-body read buffer
	hdr  [16]byte // reusable header scratch (arrays passed to io.ReadFull escape)
}

// NewStreamDecoder wraps r in a streaming frame decoder.
func NewStreamDecoder(r io.Reader) *StreamDecoder {
	return &StreamDecoder{r: bufio.NewReaderSize(r, 64*1024)}
}

// Next decodes one frame into u. The decoded Update's Path aliases the
// decoder's internal buffer and is valid only until the next call to
// Next; callers that keep the update must copy the path (the serve
// pipeline copies it into a ring slot).
//
// A clean end of stream at a frame boundary returns io.EOF. A stream
// ending mid-frame returns an error wrapping ErrTruncated; a frame whose
// path-length prefix exceeds MaxBinaryPathLen returns one wrapping
// ErrFrameTooLarge; any other malformed frame wraps ErrBadRecord.
func (d *StreamDecoder) Next(u *Update) error {
	head := d.hdr[:2]
	if _, err := io.ReadFull(d.r, head); err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF // clean boundary: nothing of a frame read
		}
		return fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if binary.BigEndian.Uint16(head) != binaryMagic {
		return fmt.Errorf("%w: bad magic %#x", ErrBadRecord, head)
	}
	fixed := d.hdr[:15] // type(1) time(8) monitor(4) family(1) plen(1)
	if err := d.readFull(fixed, "fixed fields"); err != nil {
		return err
	}
	u.Type = UpdateType(fixed[0])
	u.Time = binary.BigEndian.Uint64(fixed[1:9])
	u.Monitor = ASN(binary.BigEndian.Uint32(fixed[9:13]))
	family, plen := fixed[13], int(fixed[14])
	var addr netip.Addr
	switch family {
	case 4:
		if err := d.readFull(d.hdr[:4], "v4 addr"); err != nil {
			return err
		}
		addr = netip.AddrFrom4([4]byte(d.hdr[:4]))
	case 6:
		if err := d.readFull(d.hdr[:16], "v6 addr"); err != nil {
			return err
		}
		addr = netip.AddrFrom16([16]byte(d.hdr[:16]))
	default:
		return fmt.Errorf("%w: bad family %d", ErrBadRecord, family)
	}
	pfx, err := addr.Prefix(plen)
	if err != nil {
		return fmt.Errorf("%w: prefix /%d: %v", ErrBadRecord, plen, err)
	}
	u.Prefix = pfx
	cnt := d.hdr[:2]
	if err := d.readFull(cnt, "path length"); err != nil {
		return err
	}
	n := int(binary.BigEndian.Uint16(cnt))
	if n > MaxBinaryPathLen {
		return fmt.Errorf("%w: path length %d > %d", ErrFrameTooLarge, n, MaxBinaryPathLen)
	}
	u.Path = nil
	if n > 0 {
		need := 4 * n
		if cap(d.raw) < need {
			d.raw = make([]byte, need)
		}
		raw := d.raw[:need]
		if err := d.readFull(raw, "path"); err != nil {
			return err
		}
		if cap(d.path) < n {
			d.path = make(Path, n)
		}
		d.path = d.path[:n]
		for i := 0; i < n; i++ {
			d.path[i] = ASN(binary.BigEndian.Uint32(raw[4*i:]))
		}
		u.Path = d.path
	}
	if err := u.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	return nil
}

// readFull reads an exact frame segment, classifying a short read as a
// truncated frame.
func (d *StreamDecoder) readFull(buf []byte, what string) error {
	if _, err := io.ReadFull(d.r, buf); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrTruncated, what, err)
	}
	return nil
}
