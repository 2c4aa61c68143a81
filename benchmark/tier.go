package main

import (
	"context"
	"fmt"

	"repro/hurricane"
	"repro/internal/bag"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/transport"
)

// tier is one job's storage tier and compute cluster. The harness assembles
// it from the same parts core.NewCluster uses (storage nodes, a transport,
// a bag store, a cluster over that store, the default wire meters) so that
// a timing decorator can sit on the transport client and on each node's
// handler.
type tier struct {
	store   *hurricane.Store
	cluster *hurricane.Cluster
	client  transport.Client
	servers []*transport.TCPServer
}

// buildTier assembles a fresh tier. jt == nil installs no decorators.
func (w *workload) buildTier(jt *jobTrace) (*tier, error) {
	o := obs.New(obs.DefaultTraceCap)
	t := &tier{}
	names := make([]string, w.storageNodes)
	addrs := make(map[string]string)
	inproc := transport.NewInProc()
	for i := range names {
		name := fmt.Sprintf("storage-%d", i)
		names[i] = name
		node := storage.NewNode(name)
		node.Bind(o, 0)
		var h transport.Handler = node
		if jt != nil {
			h = &timedHandler{inner: node, node: name, jt: jt}
		}
		if !w.wire {
			inproc.Register(name, h)
			continue
		}
		srv := transport.NewTCPServer(h)
		srv.Bind(transport.NewMeter(o, "server", name, 0))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.close()
			return nil, err
		}
		t.servers = append(t.servers, srv)
		addrs[name] = addr
	}
	if w.wire {
		c := transport.NewTCPClient(addrs)
		c.Bind(transport.NewMeter(o, "client", "", 0))
		t.client = c
	} else {
		inproc.Bind(transport.NewMeter(o, "inproc", "", 0))
		t.client = inproc
	}
	client := t.client
	if jt != nil {
		client = &timedClient{inner: client, jt: jt, link: !w.wire}
	}
	store, err := bag.NewStore(bag.Config{Nodes: names, Client: client, ChunkSize: w.chunkSize})
	if err != nil {
		t.close()
		return nil, err
	}
	cfg := w.clusterConfig()
	cfg.Obs = o
	t.store = store
	t.cluster = core.NewClusterOverStore(store, cfg)
	return t, nil
}

func (t *tier) close() {
	if t.cluster != nil {
		t.cluster.Shutdown()
	}
	if t.client != nil {
		t.client.Close()
	}
	for _, s := range t.servers {
		s.Close()
	}
}

// ---- timing decorators ----

// reqKey identifies an in-flight in-proc request: the engine may send one
// request value to several nodes.
type reqKey struct {
	req  *transport.Request
	node string
}

// timedClient records a "transport.call.<op>" span around every client call
// made inside the timed region.
type timedClient struct {
	inner transport.Client
	jt    *jobTrace
	link  bool // in-proc: publish the span id for the handler decorator
}

func (c *timedClient) Call(ctx context.Context, node string, req *transport.Request) (*transport.Response, error) {
	jt := c.jt
	if !jt.active.Load() {
		return c.inner.Call(ctx, node, req)
	}
	id := jt.pass.ids.Add(1)
	if c.link {
		jt.inflight.Store(reqKey{req, node}, id)
	}
	t0 := jt.now()
	resp, err := c.inner.Call(ctx, node, req)
	t1 := jt.now()
	if c.link {
		jt.inflight.Delete(reqKey{req, node})
	}
	s := span{ID: id, Parent: jt.root, Name: "transport.call." + req.Op.String(), Job: jt.job,
		Start: t0, End: t1, Dur: t1 - t0, Calls: 1, Bytes: int64(len(req.Data))}
	var chunk, retry int64
	if resp != nil {
		s.Bytes += int64(len(resp.Data))
		if req.Op == transport.OpRemove && resp.Status == transport.StatusOK {
			chunk = 1
		}
		if resp.Status == transport.StatusAgain {
			retry = 1
		}
	}
	jt.record(s, chunk, retry)
	return resp, err
}

func (c *timedClient) Close() error { return c.inner.Close() }

// timedHandler records a "storage.handle.<op>" span around a node's
// service of one request.
type timedHandler struct {
	inner transport.Handler
	node  string
	jt    *jobTrace
}

func (h *timedHandler) Handle(req *transport.Request) *transport.Response {
	jt := h.jt
	if !jt.active.Load() {
		return h.inner.Handle(req)
	}
	parent := jt.root
	if v, ok := jt.inflight.Load(reqKey{req, h.node}); ok {
		parent = v.(int32)
	}
	t0 := jt.now()
	resp := h.inner.Handle(req)
	t1 := jt.now()
	jt.record(span{ID: jt.pass.ids.Add(1), Parent: parent, Name: "storage.handle." + req.Op.String(),
		Job: jt.job, Start: t0, End: t1, Dur: t1 - t0, Calls: 1}, 0, 0)
	return resp
}

// record keeps a decorator span unless the timed region closed while the
// call was in flight: such a span would end outside the job span.
func (jt *jobTrace) record(s span, chunk, retry int64) {
	jt.mu.Lock()
	if jt.active.Load() {
		jt.spans = append(jt.spans, s)
		jt.chunks += chunk
		jt.retries += retry
	}
	jt.mu.Unlock()
}
