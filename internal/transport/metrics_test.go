package transport

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestFrameBytes(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 1}, // empty body, 1-byte length prefix
		{1, 2},
		{127, 128}, // largest 1-byte uvarint
		{128, 130}, // first 2-byte uvarint
		{16383, 16385},
		{16384, 16387},
	}
	for _, c := range cases {
		if got := frameBytes(c.n); got != c.want {
			t.Errorf("frameBytes(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestMeterAccounting drives Begin/End directly with known outcomes and
// checks every series the meter owns: per-op counters, error vs retry
// classification, byte totals, histogram count, and that the in-flight
// gauge returns to zero.
func TestMeterAccounting(t *testing.T) {
	o := obs.New(0)
	m := NewMeter(o, "client", "", -1)

	end := func(op Op, bytesIn, bytesOut int, err error) {
		start := m.Begin()
		if got := m.inflight.Value(); got != 1 {
			t.Fatalf("inflight during op = %d, want 1", got)
		}
		m.End(op, "b", start, bytesIn, bytesOut, err)
	}
	end(OpInsert, 10, 20, nil)
	end(OpInsert, 1, 2, ErrAgain)  // retry, not an error
	end(OpInsert, 0, 3, ErrFailed) // error
	end(OpRemove, 5, 0, ErrEmpty)  // empty counts as success
	end(Op(0), 7, 7, nil)          // unknown op: bytes only

	snap := o.Registry().Snapshot()
	wants := map[string]float64{
		`hurricane_storage_op_total{role="client",op="insert"}`:        3,
		`hurricane_storage_op_errors_total{role="client",op="insert"}`: 1,
		`hurricane_storage_op_total{role="client",op="remove"}`:        1,
		`hurricane_storage_op_errors_total{role="client",op="remove"}`: 0,
		`hurricane_storage_op_ns_count{role="client",op="insert"}`:     3,
		`hurricane_storage_retries_total{role="client"}`:               1,
		`hurricane_storage_bytes_in_total{role="client"}`:              10 + 1 + 0 + 5 + 7,
		`hurricane_storage_bytes_out_total{role="client"}`:             20 + 2 + 3 + 0 + 7,
		`hurricane_storage_inflight{role="client"}`:                    0,
	}
	for series, want := range wants {
		if got := snap[series]; got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}

	// A nil meter is a no-op on every method.
	var nm *Meter
	nm.End(OpInsert, "b", nm.Begin(), 1, 1, ErrFailed)
	nm.Dial()
	nm.ConnOpened()
	nm.ConnClosed()
}

// TestMeterNodeLabel: a node-role meter carries the node label on every
// series and uses the node name as the slow-op event subject.
func TestMeterNodeLabel(t *testing.T) {
	o := obs.New(0)
	m := NewMeter(o, "node", "s7", -1)
	m.End(OpSeal, "b", m.Begin(), 0, 0, nil)
	snap := o.Registry().Snapshot()
	const want = `hurricane_storage_op_total{role="node",node="s7",op="seal"}`
	if got := snap[want]; got != 1 {
		t.Fatalf("%s = %v, want 1 (snapshot %v)", want, got, snap)
	}
}

// TestMeterSlowOp: an op at or over the threshold emits one typed
// EvStorageSlowOp trace event naming the op and bag; fast ops do not.
func TestMeterSlowOp(t *testing.T) {
	o := obs.New(0)
	m := NewMeter(o, "server", "s0", time.Microsecond)
	start := m.Begin()
	time.Sleep(2 * time.Millisecond)
	m.End(OpRemove, "shuf.p3", start, 0, 0, nil)

	events := o.Tracer().Events("", obs.EvStorageSlowOp)
	if len(events) != 1 {
		t.Fatalf("slow-op events = %d, want 1", len(events))
	}
	e := events[0]
	if e.Subject != "s0" {
		t.Errorf("subject = %q, want s0", e.Subject)
	}
	if !strings.Contains(e.Detail, "op=remove") || !strings.Contains(e.Detail, "bag=shuf.p3") {
		t.Errorf("detail = %q, want op and bag named", e.Detail)
	}

	// Negative threshold disables emission entirely.
	m2 := NewMeter(o, "server", "s1", -1)
	start = m2.Begin()
	time.Sleep(time.Millisecond)
	m2.End(OpRemove, "b", start, 0, 0, nil)
	if got := o.Tracer().Events("", obs.EvStorageSlowOp); len(got) != 1 {
		t.Fatalf("disabled meter emitted slow-op events: %d", len(got))
	}
}

// TestTCPMeterScrapeRace hammers one TCP client from concurrent workers
// while the registry is scraped (WriteText and Snapshot) the whole time,
// then reconciles the client- and server-side op counters. Run under
// -race this is the data-race proof for the whole metered wire path.
func TestTCPMeterScrapeRace(t *testing.T) {
	const workers, calls = 8, 40
	o := obs.New(0)
	srv := NewTCPServer(&echoHandler{})
	srv.Bind(NewMeter(o, "server", "s0", -1))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewTCPClient(map[string]string{"node": addr})
	defer client.Close()
	client.Bind(NewMeter(o, "client", "", -1))

	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = o.Registry().WriteText(io.Discard)
				_ = o.Registry().Snapshot()
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				data := []byte{byte(g), byte(i)}
				resp, err := client.Call(context.Background(), "node", &Request{Op: OpInsert, Bag: "b", Data: data})
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp.Data, data) {
					errs <- fmt.Errorf("worker %d call %d: payload mismatch", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	scrapes.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := o.Registry().Snapshot()
	const total = workers * calls
	for _, series := range []string{
		`hurricane_storage_op_total{role="client",op="insert"}`,
		`hurricane_storage_op_total{role="server",node="s0",op="insert"}`,
	} {
		if got := snap[series]; got != total {
			t.Errorf("%s = %v, want %d", series, got, total)
		}
	}
	for _, series := range []string{
		`hurricane_storage_inflight{role="client"}`,
		`hurricane_storage_inflight{role="server",node="s0"}`,
	} {
		if got := snap[series]; got != 0 {
			t.Errorf("%s = %v, want 0 after quiesce", series, got)
		}
	}
	// Client and server frame the same messages, so their byte views
	// mirror each other: client out == server in, client in == server out.
	cOut := snap[`hurricane_storage_bytes_out_total{role="client"}`]
	sIn := snap[`hurricane_storage_bytes_in_total{role="server",node="s0"}`]
	if cOut == 0 || cOut != sIn {
		t.Errorf("client out %v != server in %v", cOut, sIn)
	}
	cIn := snap[`hurricane_storage_bytes_in_total{role="client"}`]
	sOut := snap[`hurricane_storage_bytes_out_total{role="server",node="s0"}`]
	if cIn == 0 || cIn != sOut {
		t.Errorf("client in %v != server out %v", cIn, sOut)
	}
	if got := snap[`hurricane_storage_dials_total{role="client"}`]; got == 0 {
		t.Error("no dials recorded")
	}
}
