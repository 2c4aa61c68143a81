package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/obs"
)

func TestWireRequestRoundTripQuick(t *testing.T) {
	f := func(op uint8, bagName, dst string, arg int64, data []byte) bool {
		req := &Request{Op: Op(op), Bag: bagName, Dst: dst, Arg: arg, Data: data}
		buf := EncodeRequest(nil, req)
		got, err := DecodeRequest(buf)
		if err != nil {
			return false
		}
		return got.Op == req.Op && got.Bag == req.Bag && got.Dst == req.Dst &&
			got.Arg == req.Arg && bytes.Equal(got.Data, req.Data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWireResponseRoundTripQuick(t *testing.T) {
	f := func(status uint8, errMsg string, tc, rc, tb, rb int64, sealed bool, data []byte) bool {
		resp := &Response{
			Status: int(status), Err: errMsg,
			TotalChunks: tc, ReadChunks: rc, TotalBytes: tb, ReadBytes: rb,
			Sealed: sealed, Data: data,
		}
		buf := EncodeResponse(nil, resp)
		got, err := DecodeResponse(buf)
		if err != nil {
			return false
		}
		return got.Status == resp.Status && got.Err == resp.Err &&
			got.TotalChunks == tc && got.ReadChunks == rc &&
			got.TotalBytes == tb && got.ReadBytes == rb &&
			got.Sealed == sealed && bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRequestTruncated(t *testing.T) {
	req := &Request{Op: OpInsert, Bag: "bag", Data: []byte("payload")}
	buf := EncodeRequest(nil, req)
	for i := 0; i < len(buf); i++ {
		if _, err := DecodeRequest(buf[:i]); err == nil && i < len(buf)-1 {
			// Some prefixes may decode if the data field self-truncates
			// consistently; the decoder must never panic, which reaching
			// here proves.
			continue
		}
	}
}

func TestResponseErrors(t *testing.T) {
	cases := []struct {
		status int
		want   error
	}{
		{StatusOK, nil},
		{StatusEmpty, ErrEmpty},
		{StatusAgain, ErrAgain},
		{StatusNoBag, ErrNoBag},
		{StatusRemoved, ErrDraining},
	}
	for _, c := range cases {
		r := &Response{Status: c.status}
		if got := r.Error(); got != c.want {
			t.Errorf("status %d: got %v, want %v", c.status, got, c.want)
		}
	}
	r := &Response{Status: StatusErr, Err: "boom"}
	if got := r.Error(); got == nil || got.Error() != "boom" {
		t.Errorf("custom error: got %v", got)
	}
}

func TestOpString(t *testing.T) {
	if OpInsert.String() != "insert" || OpTake.String() != "take" || OpSketch.String() != "sketch" {
		t.Fatal("op names wrong")
	}
	if Op(200).String() == "" {
		t.Fatal("unknown op must format")
	}
}

// TestOpSketchOverTransports: the sketch op's push form (Bag + Dst writer
// ID + payload) and fetch form (payload returned in Data) survive both the
// in-process and the TCP transport unchanged.
func TestOpSketchOverTransports(t *testing.T) {
	ctx := context.Background()
	req := &Request{Op: OpSketch, Bag: "shuf", Dst: "join/w2@e0", Data: []byte(`{"counts":{"shuf.p0":7}}`)}

	check := func(t *testing.T, client Client, h *echoHandler) {
		resp, err := client.Call(ctx, "node", req)
		if err != nil || !resp.OK() {
			t.Fatalf("call: %v %+v", err, resp)
		}
		if !bytes.Equal(resp.Data, req.Data) {
			t.Fatalf("payload did not round-trip: %q", resp.Data)
		}
		if op, bag, dst := h.last(); op != OpSketch || dst != "join/w2@e0" || bag != "shuf" {
			t.Fatalf("handler saw op=%v bag=%q dst=%q", op, bag, dst)
		}
	}
	t.Run("inproc", func(t *testing.T) {
		tr := NewInProc()
		h := &echoHandler{}
		tr.Register("node", h)
		check(t, tr, h)
	})
	t.Run("tcp", func(t *testing.T) {
		h := &echoHandler{}
		srv := NewTCPServer(h)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		client := NewTCPClient(map[string]string{"node": addr})
		defer client.Close()
		check(t, client, h)
	})
}

// echoHandler returns the request payload with status OK. The TCP
// server invokes Handle from one goroutine per connection, so the
// bookkeeping fields are mutex-guarded.
type echoHandler struct {
	mu      sync.Mutex
	calls   int
	lastOp  Op
	lastBag string
	lastDst string
}

func (e *echoHandler) Handle(req *Request) *Response {
	e.mu.Lock()
	e.calls++
	e.lastOp, e.lastBag, e.lastDst = req.Op, req.Bag, req.Dst
	e.mu.Unlock()
	return &Response{Status: StatusOK, Data: req.Data, TotalChunks: req.Arg}
}

func (e *echoHandler) last() (Op, string, string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastOp, e.lastBag, e.lastDst
}

func TestInProcBasics(t *testing.T) {
	tr := NewInProc()
	o := obs.New(0)
	tr.Bind(NewMeter(o, "inproc", "", 0))
	h := &echoHandler{}
	tr.Register("n1", h)
	ctx := context.Background()

	resp, err := tr.Call(ctx, "n1", &Request{Op: OpPing, Data: []byte("x"), Arg: 7})
	if err != nil || !resp.OK() || string(resp.Data) != "x" || resp.TotalChunks != 7 {
		t.Fatalf("call: %v %+v", err, resp)
	}
	if _, err := tr.Call(ctx, "nope", &Request{Op: OpPing}); err != ErrNodeDown {
		t.Fatalf("unknown node: got %v", err)
	}
	tr.Crash("n1")
	if _, err := tr.Call(ctx, "n1", &Request{Op: OpPing}); err != ErrNodeDown {
		t.Fatalf("crashed node: got %v", err)
	}
	tr.Restore("n1")
	if _, err := tr.Call(ctx, "n1", &Request{Op: OpPing}); err != nil {
		t.Fatalf("restored node: got %v", err)
	}
	tr.Deregister("n1")
	if _, err := tr.Call(ctx, "n1", &Request{Op: OpPing}); err != ErrNodeDown {
		t.Fatalf("deregistered node: got %v", err)
	}
	// The bound meter supersedes the old private calls counter: every
	// call — including the failed ones — shows up in the per-op series.
	snap := o.Registry().Snapshot()
	const pings = `hurricane_storage_op_total{role="inproc",op="ping"}`
	if got := snap[pings]; got != 5 {
		t.Fatalf("ping op counter = %v, want 5 (snapshot %v)", got, snap)
	}
	const pingErrs = `hurricane_storage_op_errors_total{role="inproc",op="ping"}`
	if got := snap[pingErrs]; got != 3 {
		t.Fatalf("ping error counter = %v, want 3", got)
	}
}

func TestInProcLatencyAndCancel(t *testing.T) {
	tr := NewInProc()
	tr.Register("n1", &echoHandler{})
	tr.SetLatency(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := tr.Call(ctx, "n1", &Request{Op: OpPing})
	if err == nil {
		t.Fatal("expected context deadline error")
	}
	if time.Since(start) > 40*time.Millisecond {
		t.Fatal("cancellation did not interrupt latency sleep")
	}
}

func TestTCPEndToEnd(t *testing.T) {
	h := &echoHandler{}
	srv := NewTCPServer(h)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := NewTCPClient(map[string]string{"node": addr})
	defer client.Close()
	ctx := context.Background()

	payload := bytes.Repeat([]byte("hurricane"), 1000)
	resp, err := client.Call(ctx, "node", &Request{Op: OpInsert, Bag: "b", Data: payload})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK() || !bytes.Equal(resp.Data, payload) {
		t.Fatalf("bad response: %+v", resp)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	srv := NewTCPServer(&echoHandler{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewTCPClient(map[string]string{"node": addr})
	defer client.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				data := []byte{byte(g), byte(i)}
				resp, err := client.Call(context.Background(), "node", &Request{Op: OpInsert, Data: data})
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp.Data, data) {
					errs <- ErrFailed
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPUnknownNode(t *testing.T) {
	client := NewTCPClient(nil)
	defer client.Close()
	if _, err := client.Call(context.Background(), "ghost", &Request{Op: OpPing}); err != ErrNodeDown {
		t.Fatalf("got %v, want ErrNodeDown", err)
	}
}

func TestTCPServerClosedConnection(t *testing.T) {
	srv := NewTCPServer(&echoHandler{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := NewTCPClient(map[string]string{"node": addr})
	defer client.Close()
	if _, err := client.Call(context.Background(), "node", &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := client.Call(context.Background(), "node", &Request{Op: OpPing}); err == nil {
		t.Fatal("expected error after server close")
	}
}

func TestHandlerFunc(t *testing.T) {
	h := HandlerFunc(func(req *Request) *Response {
		return &Response{Status: StatusOK, Data: req.Data}
	})
	resp := h.Handle(&Request{Data: []byte("z")})
	if string(resp.Data) != "z" {
		t.Fatal("HandlerFunc broken")
	}
}

// TestTCPCallHonoursCancel: a cancelled context — not only an expired
// deadline — must release a caller blocked on a node that does not answer
// (bag's consumer stops with cancel-then-wait), and the interrupted
// connection, which will still receive the abandoned reply, must not go
// back to the pool.
func TestTCPCallHonoursCancel(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv := NewTCPServer(HandlerFunc(func(req *Request) *Response {
		if req.Op == OpRemove {
			entered <- struct{}{}
			<-release
			return &Response{Status: StatusOK, Data: []byte("stale reply")}
		}
		return &Response{Status: StatusOK, Data: []byte("fresh reply")}
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(release) // unblock the handler before srv.Close waits for it
	client := NewTCPClient(map[string]string{"node": addr})
	defer client.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := client.Call(ctx, "node", &Request{Op: OpRemove, Bag: "b"})
		done <- err
	}()
	<-entered // the request is on the server; the caller is blocked reading
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call returned %v, want context.Canceled (ErrNodeDown would mark a healthy node down)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled call still blocked on the stalled node")
	}
	client.mu.Lock()
	pooled := len(client.idle["node"])
	client.mu.Unlock()
	if pooled != 0 {
		t.Fatalf("%d interrupted connection(s) back in the pool", pooled)
	}
	// The next call dials afresh and reads its own reply.
	resp, err := client.Call(context.Background(), "node", &Request{Op: OpPing})
	if err != nil || string(resp.Data) != "fresh reply" {
		t.Fatalf("call after cancel: %v, %+v", err, resp)
	}
}

// TestTCPLargePayloadBothWays: payloads far above the connection read
// buffer travel intact in both directions through the vectored write and the
// direct read, back to back on one pooled connection.
func TestTCPLargePayloadBothWays(t *testing.T) {
	srv := NewTCPServer(&echoHandler{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewTCPClient(map[string]string{"node": addr})
	defer client.Close()
	for _, size := range []int{0, 1, connReadBuffer - 1, connReadBuffer, connReadBuffer + 1, 1 << 20, 3<<20 + 17} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i*31 + size)
		}
		resp, err := client.Call(context.Background(), "node", &Request{Op: OpInsert, Bag: "b", Dst: "d", Arg: -5, Data: payload})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(resp.Data, payload) {
			t.Fatalf("size %d: payload changed on the wire", size)
		}
	}
}

// TestFaultyHoldsUntilEvent: a hold delays exactly the request its match
// selects until the named event, which FireAfter raises when another
// selected request completes; a held call gives up with its context.
func TestFaultyHoldsUntilEvent(t *testing.T) {
	tr := NewInProc()
	var order []string
	var mu sync.Mutex
	tr.Register("n", HandlerFunc(func(req *Request) *Response {
		mu.Lock()
		order = append(order, string(req.Data))
		mu.Unlock()
		return &Response{Status: StatusOK}
	}))
	f := NewFaulty(tr)
	held := f.Hold(Match{Op: OpInsert, Node: "n", Bag: "b", Nth: 2}, "third done")
	f.FireAfter(Match{Op: OpInsert, Node: "n", Bag: "b", Nth: 3}, "third done")
	ctx := context.Background()
	call := func(data string) {
		if _, err := f.Call(ctx, "n", &Request{Op: OpInsert, Bag: "b", Data: []byte(data)}); err != nil {
			t.Error(err)
		}
	}
	call("1")
	done := make(chan struct{})
	go func() { call("2"); close(done) }()
	<-held
	call("3")
	<-done
	if fmt.Sprint(order) != "[1 3 2]" {
		t.Fatalf("handled %v, want [1 3 2]", order)
	}

	f.Hold(Match{Op: OpPing, Node: "n"}, "never")
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := f.Call(cctx, "n", &Request{Op: OpPing}); !errors.Is(err, context.Canceled) {
		t.Fatalf("held call with a cancelled context: %v", err)
	}
}
