package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"xnf/internal/types"
	"xnf/internal/workload"
)

// TestCOStatementTimeout: the engine's default statement timeout bounds
// CO extraction on every entry point — a pulled stream, an in-process
// drain and a wire QueryCO from a session with no SET override.
func TestCOStatementTimeout(t *testing.T) {
	srv, addr := testServer(t, func(s *Server) { s.DB.Options.StatementTimeout = time.Nanosecond })
	stream, err := srv.DB.StreamCOView(context.Background(), "deps_ARC")
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, row, err := stream.Next()
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("stream failed with %v, want context.DeadlineExceeded", err)
			}
			break
		}
		if row == nil {
			t.Fatal("a 1ns statement timeout let the CO stream run to its end")
		}
	}
	stream.Close()
	if _, err := srv.DB.ExtractCOView("deps_ARC", false); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain returned %v, want context.DeadlineExceeded", err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.FetchCO("deps_ARC", ShipWhole())
	if code := serverCode(t, err); code != CodeTimeout {
		t.Fatalf("wire QueryCO: code %v, want CodeTimeout", code)
	}
	if n := srv.DB.MemUsed(); n != 0 {
		t.Fatalf("reserved bytes after timed-out extractions = %d, want 0", n)
	}
}

// TestRecursiveCOOverWire: a recursive CO (the parts explosion fixpoint)
// ships through the same stream as every other CO — whole or in blocks
// smaller than the CO — and a client vanishing mid-fetch leaks nothing.
func TestRecursiveCOOverWire(t *testing.T) {
	db, err := workload.NewPartsDB(workload.PartsParams{Parts: 200, Roots: 4, FanOut: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	want, err := db.ExtractCOView("parts_explosion", false)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, rows := range want.Rows {
		total += len(rows)
	}
	if total < 20 {
		t.Fatalf("parts_explosion extracted %d tuples; too few to ship in blocks", total)
	}
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, mode := range []ShipMode{ShipWhole(), ShipBlocks(total / 7)} {
		got, err := c.FetchCO("parts_explosion", mode)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Outputs) != len(want.Outputs) {
			t.Fatalf("block %d: %d outputs, want %d", mode.BlockSize, len(got.Outputs), len(want.Outputs))
		}
		for i := range want.Rows {
			if len(got.Rows[i]) != len(want.Rows[i]) {
				t.Fatalf("block %d: output %s shipped %d rows, extracted %d", mode.BlockSize,
					want.Outputs[i].Name, len(got.Rows[i]), len(want.Rows[i]))
			}
			for j := range want.Rows[i] {
				if !types.EqualRows(got.Rows[i][j], want.Rows[i][j]) {
					t.Fatalf("block %d: output %s row %d: %v vs %v", mode.BlockSize,
						want.Outputs[i].Name, j, got.Rows[i][j], want.Rows[i][j])
				}
			}
		}
	}

	// Abandon a second session after one block of the stream.
	v, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := v.send(FrameQueryCO, []byte("parts_explosion")); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := v.recv(); err != nil || ft != FrameSchema {
		t.Fatalf("schema: frame %d, %v", ft, err)
	}
	if err := v.send(FrameFetch, binary.AppendVarint(nil, 3)); err != nil {
		t.Fatal(err)
	}
	for {
		ft, _, err := v.recv()
		if err != nil {
			t.Fatal(err)
		}
		if ft == FrameMore {
			break
		}
		if ft != FrameRows {
			t.Fatalf("mid-fetch: unexpected frame %d", ft)
		}
	}
	v.Abandon()
	c.Close()
	waitGauge(t, srv, "xnf_sessions_active", 0)
	waitGauge(t, srv, "xnf_open_cursors", 0)
	deadline := time.Now().Add(5 * time.Second)
	for db.MemUsed() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("reserved bytes after the sessions ended = %d, want 0", db.MemUsed())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
