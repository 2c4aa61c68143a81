package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
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
	if OpInsert.String() != "insert" || OpTake.String() != "take" || OpDeletePrefix.String() != "deletePrefix" {
		t.Fatal("op names wrong")
	}
	if Op(200).String() == "" {
		t.Fatal("unknown op must format")
	}
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

// TestFaultyHoldsUntilEvent: a Faulty schedule's rules select exactly the
// requests their match, window and when say, and act on them — hold until
// an event, fire one, tap, answer in place of the node or of its reply. A
// case is a script of steps: "<bag> <data>" makes a call and "go <bag>
// <data>" makes one in the background; "held <i>" waits until rule i has
// selected a request, "fire <event>" fires one, "cancel" cancels the
// background calls' context and "wait" waits for them. The log reads
// "h<data>" when the node handles a request and "tap <bag> <status>" when
// a rule taps, then, after a bar, "<data>:<outcome>" for each call in
// data order.
func TestFaultyHoldsUntilEvent(t *testing.T) {
	var mu sync.Mutex
	var log, outcomes []string
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		log = append(log, fmt.Sprintf(format, args...))
	}
	tap := func(_ string, req *Request, resp *Response) {
		if resp == nil {
			logf("tap %s arrival", req.Bag)
		} else {
			logf("tap %s %d", req.Bag, resp.Status)
		}
	}
	for _, tc := range []struct {
		name  string
		rules []Rule
		steps string
		want  string
	}{
		{"arrival hold, reply fire",
			[]Rule{{Match: Match{Op: OpInsert, Nth: 2}, Hold: "third landed"},
				{Match: Match{Op: OpInsert, Nth: 2}, When: OnReply, Fire: "third landed"}},
			"b 1; go b 2; held 0; b 3; wait",
			"h1 h3 h2 | 1:<nil> 2:<nil> 3:<nil>"},
		{"window opened by an arrival fire, Nth 0 answered",
			[]Rule{{Match: Match{Bag: "open"}, Fire: "open"},
				{Open: "open", Close: "close", Answer: &Response{Status: StatusAgain}}},
			"b 1; open 2; b 3; b 4; fire close; b 5",
			"h1 h2 h5 | 1:<nil> 2:<nil> 3:bag temporarily empty 4:bag temporarily empty 5:<nil>"},
		{"bag substring, arrival tap",
			[]Rule{{Match: Match{Bag: "x#1"}, Tap: tap}},
			"x#1 1; x#2 2; x#10 3",
			"tap x#1 arrival h1 h2 tap x#10 arrival h3 | 1:<nil> 2:<nil> 3:<nil>"},
		{"reply hold of the first OK reply",
			[]Rule{{Match: Match{Nth: 1, OK: true}, When: OnReply, Hold: "deliver"}},
			"sealed 1; go b 2; held 0; b 3; fire deliver; wait",
			"h1 h2 h3 | 1:bag empty 2:<nil> 3:<nil>"},
		{"reply tap, lost reply",
			[]Rule{{Match: Match{Nth: 2}, When: OnReply, Tap: tap, Err: ErrNodeDown}},
			"b 1; b 2; b 3",
			"h1 h2 tap b 0 h3 | 1:<nil> 2:node down 3:<nil>"},
		{"reply hold outlives a cancelled context",
			[]Rule{{When: OnReply, Hold: "deliver"}},
			"go b 1; held 0; cancel; fire deliver; wait",
			"h1 | 1:<nil>"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log, outcomes = nil, nil
			tr := NewInProc()
			tr.Register("n", HandlerFunc(func(req *Request) *Response {
				logf("h%s", req.Data)
				if req.Bag == "sealed" {
					return &Response{Status: StatusEmpty}
				}
				return &Response{Status: StatusOK}
			}))
			f := NewFaulty(tr)
			var selected []<-chan struct{}
			for _, r := range tc.rules {
				selected = append(selected, f.Add(r))
			}
			bg, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls sync.WaitGroup
			call := func(ctx context.Context, bag, data string) {
				resp, err := f.Call(ctx, "n", &Request{Op: OpInsert, Bag: bag, Data: []byte(data)})
				if err == nil {
					err = resp.Error()
				}
				mu.Lock()
				defer mu.Unlock()
				outcomes = append(outcomes, data+":"+strings.TrimPrefix(fmt.Sprint(err), "transport: "))
			}
			for _, step := range strings.Split(tc.steps, "; ") {
				w := strings.Fields(step)
				switch w[0] {
				case "go":
					calls.Add(1)
					go func() { defer calls.Done(); call(bg, w[1], w[2]) }()
				case "held":
					i, _ := strconv.Atoi(w[1])
					<-selected[i]
				case "fire":
					f.Fire(w[1])
				case "cancel":
					cancel()
				case "wait":
					calls.Wait()
				default:
					call(context.Background(), w[0], w[1])
				}
			}
			slices.Sort(outcomes)
			if got := strings.Join(append(log, "|"), " ") + " " + strings.Join(outcomes, " "); got != tc.want {
				t.Fatalf("log %q, want %q", got, tc.want)
			}
		})
	}
}
