package serve

import (
	"errors"
	"io"
	"net"

	"aspp/internal/bgp"
	"aspp/internal/detect"
	"aspp/internal/obs"
)

// ServeIngest accepts update-stream connections on l until the listener
// closes or the pipeline shuts down. Each connection carries the framed
// binary codec (bgp.StreamDecoder); frames are routed to shard rings by
// prefix hash. Returns nil on pipeline close, otherwise the accept
// error.
func (p *Pipeline) ServeIngest(l net.Listener) error {
	for {
		c, err := l.Accept()
		if err != nil {
			if p.closing.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		p.connMu.Lock()
		if p.closing.Load() {
			p.connMu.Unlock()
			c.Close()
			return nil
		}
		p.conns[c] = struct{}{}
		// Register under connMu: Close sets closing before taking the
		// lock, so it always waits for this producer (or we saw closing
		// and never registered).
		p.producers.Add(1)
		p.connMu.Unlock()
		go p.handleConn(c)
	}
}

// handleConn decodes one connection's frame stream into the rings. The
// decoder reuses its path buffer across frames and the ring push copies
// path bytes into slot storage, so the steady-state per-frame path is
// allocation-free. A malformed frame (anything wrapping bgp.ErrBadRecord,
// including oversized and truncated frames) is counted and poisons the
// connection: framing is lost, so the stream cannot be resynchronized and
// the connection is closed.
func (p *Pipeline) handleConn(c net.Conn) {
	defer p.producers.Done() // last: after the flush below lands counters
	defer func() {
		c.Close()
		p.connMu.Lock()
		delete(p.conns, c)
		p.connMu.Unlock()
	}()
	dec := bgp.NewStreamDecoder(c)
	block := p.cfg.Policy == Block
	var u bgp.Update
	var frames, accepted int64
	flush := func() {
		p.cfg.Counters.Add(obs.FramesIn, frames)
		p.cfg.Counters.Add(obs.ServeEnqueued, accepted)
		frames, accepted = 0, 0
	}
	defer flush()
	for {
		if err := dec.Next(&u); err != nil {
			if !errors.Is(err, io.EOF) {
				p.cfg.Counters.Add(obs.FramesBad, 1)
			}
			return
		}
		frames++
		si := detect.PrefixShard(u.Prefix, len(p.rings))
		if p.rings[si].push(&u, p.now(), block, p.closing.Load) {
			accepted++
		} else if p.closing.Load() {
			return
		} else {
			p.cfg.Counters.Add(obs.ServeDropped, 1)
		}
		if frames >= 512 {
			flush()
		}
	}
}
