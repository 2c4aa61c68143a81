package transport

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPServer serves the storage protocol over TCP for a single storage node.
type TCPServer struct {
	Handler Handler

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
	meter    atomic.Pointer[Meter]
}

// Bind attaches a meter recording per-op telemetry (latency, wire
// bytes, errors, connection and in-flight gauges) for every request
// this server handles. Safe to call concurrently with serving.
func (s *TCPServer) Bind(m *Meter) { s.meter.Store(m) }

// NewTCPServer returns a server dispatching requests to h.
func NewTCPServer(h Handler) *TCPServer {
	return &TCPServer{Handler: h, conns: make(map[net.Conn]struct{})}
}

// Listen binds to addr (e.g. "127.0.0.1:0") and begins accepting
// connections in the background. It returns the bound address.
func (s *TCPServer) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *TCPServer) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	cm := s.meter.Load()
	cm.ConnOpened()
	defer func() {
		cm.ConnClosed()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, connReadBuffer)
	head := make([]byte, headRoom, 128)
	for {
		// Every request gets a body of its own: the decoded request's
		// Data aliases it, and the handler may keep it.
		body, err := readMessage(br)
		if err != nil {
			return
		}
		m := s.meter.Load()
		start := m.Begin()
		req, err := DecodeRequest(body)
		var resp *Response
		if err != nil {
			resp = &Response{Status: StatusErr, Err: err.Error()}
		} else {
			resp = s.Handler.Handle(req)
		}
		var op Op
		var bag string
		if req != nil {
			op, bag = req.Op, req.Bag
		}
		head = appendResponseHead(head[:headRoom], resp)
		out, werr := writeMessage(conn, head, resp.Data)
		m.End(op, bag, start, frameBytes(len(body)), frameBytes(out), resp.Error())
		if werr != nil {
			return
		}
	}
}

// Close stops the server and closes all connections.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// TCPClient implements Client over TCP. Node names are resolved to
// addresses through the Addrs map supplied at construction. Each node gets
// a small connection pool so that batch sampling's concurrent requests do
// not serialize on one socket.
type TCPClient struct {
	addrs map[string]string

	mu     sync.Mutex
	idle   map[string][]*tcpConn
	closed bool
	meter  atomic.Pointer[Meter]
}

type tcpConn struct {
	c    net.Conn
	br   *bufio.Reader
	head []byte // request head scratch, headRoom bytes of prefix room in front
	// m is the meter that counted this connection's open, captured at
	// dial time so the close decrement lands on the same gauge even if
	// the client is re-bound meanwhile.
	m *Meter
}

// close closes the connection and settles its gauge accounting. Every
// tcpConn is closed through exactly one of the client's paths (call
// failure, pool replacement, or Close), so the decrement pairs with the
// dial-time increment.
func (tc *tcpConn) close() {
	tc.c.Close()
	tc.m.ConnClosed()
}

// Bind attaches a meter recording per-op telemetry (latency, wire
// bytes, errors, dial and connection gauges) for every call through
// this client. Safe to call concurrently with Call.
func (c *TCPClient) Bind(m *Meter) { c.meter.Store(m) }

// NewTCPClient returns a client that reaches each named node at the given
// TCP address.
func NewTCPClient(addrs map[string]string) *TCPClient {
	m := make(map[string]string, len(addrs))
	for k, v := range addrs {
		m[k] = v
	}
	return &TCPClient{addrs: m, idle: make(map[string][]*tcpConn)}
}

// SetAddr adds or updates a node's address (used when storage nodes are
// added at runtime, §3.4). Pooled connections to the node's previous
// address are closed — they would otherwise leak (and keep the
// connection gauge inflated) since the pool never hands them out again.
func (c *TCPClient) SetAddr(node, addr string) {
	c.mu.Lock()
	stale := c.idle[node]
	c.addrs[node] = addr
	c.idle[node] = nil
	c.mu.Unlock()
	for _, tc := range stale {
		tc.close()
	}
}

var errClientClosed = errors.New("transport: client closed")

func (c *TCPClient) get(node string) (*tcpConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClientClosed
	}
	pool := c.idle[node]
	if n := len(pool); n > 0 {
		tc := pool[n-1]
		c.idle[node] = pool[:n-1]
		c.mu.Unlock()
		return tc, nil
	}
	addr, ok := c.addrs[node]
	c.mu.Unlock()
	if !ok {
		return nil, ErrNodeDown
	}
	m := c.meter.Load()
	m.Dial()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, ErrNodeDown
	}
	m.ConnOpened()
	return &tcpConn{
		c:    conn,
		br:   bufio.NewReaderSize(conn, connReadBuffer),
		head: make([]byte, headRoom, 128),
		m:    m,
	}, nil
}

func (c *TCPClient) put(node string, tc *tcpConn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		tc.close()
		return
	}
	c.idle[node] = append(c.idle[node], tc)
}

// Call implements Client.
func (c *TCPClient) Call(ctx context.Context, node string, req *Request) (*Response, error) {
	m := c.meter.Load()
	start := m.Begin()
	resp, in, out, err := c.call(ctx, node, req)
	m.End(req.Op, req.Bag, start, in, out, respError(resp, err))
	return resp, err
}

// call is Call without the telemetry wrapper; it returns the wire bytes
// read and written alongside the response. The context bounds the whole
// round trip: its deadline is the connection's, and cancelling it expires
// the connection's deadline so a caller blocked on a silent server returns
// at once. A connection that was interrupted mid-message is closed, never
// pooled — the next caller would read the abandoned reply.
func (c *TCPClient) call(ctx context.Context, node string, req *Request) (resp *Response, in, out int, err error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, 0, err
	}
	tc, err := c.get(node)
	if err != nil {
		return nil, 0, 0, err
	}
	deadline, _ := ctx.Deadline() // zero clears a pooled connection's deadline
	tc.c.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { tc.c.SetDeadline(expired) })
	fail := func(err error) (*Response, int, int, error) {
		stop()
		tc.close()
		if ctx.Err() != nil {
			err = ctx.Err() // the caller gave up; the node is not to blame
		}
		return nil, in, out, err
	}
	tc.head = appendRequestHead(tc.head[:headRoom], req)
	n, err := writeMessage(tc.c, tc.head, req.Data)
	out = frameBytes(n)
	if err != nil {
		return fail(ErrNodeDown)
	}
	respBody, err := readMessage(tc.br)
	if err != nil {
		return fail(ErrNodeDown)
	}
	in = frameBytes(len(respBody))
	resp, err = DecodeResponse(respBody)
	if err != nil {
		return fail(err)
	}
	if !stop() {
		// Cancelled after the reply arrived: the reply stands, but the
		// deadline may have been expired under the connection.
		tc.close()
		return resp, in, out, nil
	}
	c.put(node, tc)
	return resp, in, out, nil
}

// Close implements Client.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, pool := range c.idle {
		for _, tc := range pool {
			tc.close()
		}
	}
	c.idle = make(map[string][]*tcpConn)
	return nil
}

// expired is a connection deadline in the past: setting it fails the
// connection's pending and future reads and writes.
var expired = time.Unix(1, 0)
