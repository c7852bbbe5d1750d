package main

import (
	"context"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aspp/internal/bgp"
)

// TestLoadAgainstSink replays a small corpus at a local TCP sink that
// counts decoded frames, verifying the generator speaks the framed
// binary codec end to end.
func TestLoadAgainstSink(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var frames atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		dec := bgp.NewStreamDecoder(conn)
		var u bgp.Update
		for dec.Next(&u) == nil {
			frames.Add(1)
		}
	}()

	var sb strings.Builder
	err = run(context.Background(), []string{
		"-connect", l.Addr().String(), "-n", "400", "-events", "20", "-updates", "5000",
	}, &sb)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, sb.String())
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sink never saw the stream end")
	}
	if got := frames.Load(); got != 5000 {
		t.Fatalf("sink decoded %d frames, want 5000", got)
	}
	if !strings.Contains(sb.String(), "updates/sec") {
		t.Errorf("no throughput report:\n%s", sb.String())
	}
}

// TestLoadEmptyCorpus: monitors that hear no churn event give an empty
// corpus, which is an error before anything is dialled — not a replay loop
// that divides by the corpus length.
func TestLoadEmptyCorpus(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "ingest.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var dialled atomic.Bool
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			dialled.Store(true)
			io.Copy(io.Discard, conn)
			conn.Close()
		}
	}()
	var sb strings.Builder
	err = run(context.Background(), []string{"-unix", sock, "-n", "300", "-monitors", "4000000000"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "empty update corpus") {
		t.Fatalf("a monitor outside the topology: err %v, want the empty-corpus error\n%s", err, sb.String())
	}
	if dialled.Load() {
		t.Error("dialled the daemon before failing on the corpus")
	}
}

func TestLoadBadInputs(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), nil, &sb); err == nil {
		t.Error("missing -connect/-unix accepted")
	}
	if err := run(context.Background(), []string{"-connect", "x", "-unix", "y"}, &sb); err == nil {
		t.Error("both -connect and -unix accepted")
	}
	if err := run(context.Background(), []string{"-connect", "127.0.0.1:1"}, &sb); err == nil {
		t.Error("dial to a closed port succeeded")
	}
	// The same message the daemon gives, before any dial.
	if err := run(context.Background(), []string{"-connect", "127.0.0.1:1", "-n", "300", "-monitors", "top-4"}, &sb); err == nil || !strings.Contains(err.Error(), "K >= 1") {
		t.Errorf("-monitors top-4: err %v, want the topK message", err)
	}
}
