// Package storage implements Hurricane storage nodes.
//
// A storage node stores the local portion of every bag: an append-only
// sequence of chunks plus a read pointer. Inserts append in FIFO order;
// removes return the chunk at the read pointer and advance it, which is
// what guarantees that every chunk is delivered to exactly one task clone
// (§4.3 of the paper: bags are implemented as regular files; the append is
// atomic and the file pointer ensures a chunk is never returned twice).
//
// Two backends are provided: an in-memory backend (the default for the
// embedded engine and tests) and a disk backend that stores each bag as a
// file in a directory, mirroring the paper's ext4 implementation.
package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sketch"
	"repro/internal/transport"
)

// backend is the per-bag storage implementation.
type backend interface {
	insert(chunk []byte) error
	// remove returns the chunk at the read pointer and advances it.
	// ok is false when no unread chunk is available.
	remove() (chunk []byte, ok bool, err error)
	// readAt returns chunk i without consuming it.
	readAt(i int64) (chunk []byte, ok bool, err error)
	// rewindTo positions the read pointer at chunk index pos.
	rewindTo(pos int64) error
	// discard drops all contents, resetting the bag to empty.
	discard() error
	// stats returns (totalChunks, readChunks, totalBytes, readBytes).
	stats() (int64, int64, int64, int64)
	// destroy releases all resources (files, memory).
	destroy() error
}

// bagState is a bag's local state on one storage node.
type bagState struct {
	mu     sync.Mutex
	b      backend
	sealed bool
}

// Node is a single Hurricane storage node. It implements
// transport.Handler, so it can be served by any transport.
type Node struct {
	name string

	mu       sync.Mutex
	bags     map[string]*bagState
	draining bool

	// sketches holds the control state of the shuffle edges homed on this
	// node (see transport.OpSketch): per edge, each producer's latest
	// cumulative stats blob, exactly as it arrived — producers push
	// cumulative (not delta) stats, so a re-push replaces rather than
	// accumulates, and only a fetch decodes and merges. The node never
	// looks inside a blob on the push path.
	sketchMu sync.Mutex
	sketches map[string]map[string][]byte // edge -> writer ID -> stats

	newBackend func(bag string) (backend, error)

	// meter, when bound, records per-op telemetry for every request
	// this node handles, regardless of which transport delivered it.
	meter atomic.Pointer[transport.Meter]
	obs   atomic.Pointer[obs.Observer]

	// rec and watch, when bound, back the node's continuous-telemetry
	// debug surfaces (/debug/timeseries, /debug/alerts, /debug/dash).
	// The standalone process (cmd/hurricane-storage) owns the sampling
	// goroutine; the node only holds the handles for DebugHandler.
	rec   atomic.Pointer[obs.Recorder]
	watch atomic.Pointer[obs.Watch]
}

// Option configures a Node.
type Option func(*Node)

// WithDir makes the node persist bags as files under dir (one file per
// bag), like the paper's ext4-backed implementation. Without this option
// bags are kept in memory.
func WithDir(dir string) Option {
	return func(n *Node) {
		n.newBackend = func(bag string) (backend, error) {
			return newDiskBackend(dir, bag)
		}
	}
}

// NewNode returns a storage node with the given name.
func NewNode(name string, opts ...Option) *Node {
	n := &Node{
		name:     name,
		bags:     make(map[string]*bagState),
		sketches: make(map[string]map[string][]byte),
		newBackend: func(string) (backend, error) {
			return &memBackend{}, nil
		},
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Bind attaches an observer: every handled request is recorded under
// role="node" with the node's name as a label (per-op latency, payload
// bytes, errors), and ops at or above slow emit EvStorageSlowOp trace
// events (slow == 0 selects transport.DefaultSlowOp, slow < 0 disables
// them). Safe to call concurrently with Handle; bind nil to stop.
func (n *Node) Bind(o *obs.Observer, slow time.Duration) {
	n.obs.Store(o)
	n.meter.Store(transport.NewMeter(o, "node", n.name, slow))
}

// Observer returns the observer bound to this node (nil when unbound).
func (n *Node) Observer() *obs.Observer { return n.obs.Load() }

// BindTelemetry attaches a time-series recorder and watchdog for the
// debug surface to serve. The caller owns the sampling cadence (the
// node never starts goroutines); nil handles are fine — the surfaces
// then serve empty documents.
func (n *Node) BindTelemetry(rec *obs.Recorder, watch *obs.Watch) {
	n.rec.Store(rec)
	n.watch.Store(watch)
}

// Recorder returns the bound time-series recorder (nil when unbound).
func (n *Node) Recorder() *obs.Recorder { return n.rec.Load() }

// Watch returns the bound watchdog (nil when unbound).
func (n *Node) Watch() *obs.Watch { return n.watch.Load() }

// BagStats is one bag's state in a Node.Stats summary.
type BagStats struct {
	Bag         string `json:"bag"`
	TotalChunks int64  `json:"total_chunks"`
	ReadChunks  int64  `json:"read_chunks"`
	TotalBytes  int64  `json:"total_bytes"`
	ReadBytes   int64  `json:"read_bytes"`
	Sealed      bool   `json:"sealed"`
}

// NodeStats is the summary served by the storage debug endpoint.
type NodeStats struct {
	Node        string     `json:"node"`
	Draining    bool       `json:"draining"`
	Bags        []BagStats `json:"bags"`
	TotalChunks int64      `json:"total_chunks"`
	TotalBytes  int64      `json:"total_bytes"`
	SketchEdges int        `json:"sketch_edges"`
}

// Stats summarizes the node: per-bag chunk/byte/read-pointer stats from
// each bag's backend, sorted by name, plus node-wide totals and the
// number of shuffle edges with sketch state.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	st := NodeStats{Node: n.name, Draining: n.draining}
	bags := make(map[string]*bagState, len(n.bags))
	for name, bs := range n.bags {
		bags[name] = bs
	}
	n.mu.Unlock()
	for name, bs := range bags {
		bs.mu.Lock()
		tc, rc, tb, rb := bs.b.stats()
		sealed := bs.sealed
		bs.mu.Unlock()
		st.Bags = append(st.Bags, BagStats{
			Bag: name, TotalChunks: tc, ReadChunks: rc,
			TotalBytes: tb, ReadBytes: rb, Sealed: sealed,
		})
		st.TotalChunks += tc
		st.TotalBytes += tb
	}
	sort.Slice(st.Bags, func(i, j int) bool { return st.Bags[i].Bag < st.Bags[j].Bag })
	n.sketchMu.Lock()
	st.SketchEdges = len(n.sketches)
	n.sketchMu.Unlock()
	return st
}

// SetDraining marks the node as draining: it rejects inserts but continues
// to serve removes until its bags empty (§3.4, storage node removal).
func (n *Node) SetDraining(v bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.draining = v
}

// BagNames returns the names of all bags with local state on this node.
func (n *Node) BagNames() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.bags))
	for name := range n.bags {
		out = append(out, name)
	}
	return out
}

// get returns the bag's state, creating it lazily if create is set.
func (n *Node) get(bag string, create bool) (*bagState, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	bs, ok := n.bags[bag]
	if !ok {
		if !create {
			return nil, nil
		}
		b, err := n.newBackend(bag)
		if err != nil {
			return nil, err
		}
		bs = &bagState{b: b}
		n.bags[bag] = bs
	}
	return bs, nil
}

func errResp(err error) *transport.Response {
	return &transport.Response{Status: transport.StatusErr, Err: err.Error()}
}

// Handle implements transport.Handler.
func (n *Node) Handle(req *transport.Request) *transport.Response {
	m := n.meter.Load()
	start := m.Begin()
	resp := n.handle(req)
	m.End(req.Op, req.Bag, start, len(req.Data), len(resp.Data), resp.Error())
	return resp
}

// handle dispatches one request; Handle wraps it with telemetry.
func (n *Node) handle(req *transport.Request) *transport.Response {
	switch req.Op {
	case transport.OpPing:
		return &transport.Response{Status: transport.StatusOK}
	case transport.OpInsert:
		return n.handleInsert(req)
	case transport.OpRemove:
		return n.handleRemove(req)
	case transport.OpSeal:
		return n.handleSeal(req)
	case transport.OpSample:
		return n.handleSample(req)
	case transport.OpRewind:
		return n.handleRewind(req)
	case transport.OpAdvance:
		return n.handleAdvance(req)
	case transport.OpDiscard:
		return n.handleDiscard(req)
	case transport.OpDelete:
		return n.handleDelete(req)
	case transport.OpDeletePrefix:
		return n.handleDeletePrefix(req)
	case transport.OpRename:
		return n.handleRename(req)
	case transport.OpReadAt:
		return n.handleReadAt(req)
	case transport.OpSketch:
		return n.handleSketch(req)
	default:
		return errResp(fmt.Errorf("storage: unknown op %v", req.Op))
	}
}

func (n *Node) handleInsert(req *transport.Request) *transport.Response {
	n.mu.Lock()
	draining := n.draining
	n.mu.Unlock()
	if draining {
		return &transport.Response{Status: transport.StatusRemoved}
	}
	bs, err := n.get(req.Bag, true)
	if err != nil {
		return errResp(err)
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.sealed {
		return errResp(fmt.Errorf("storage: insert into sealed bag %q", req.Bag))
	}
	if err := bs.b.insert(req.Data); err != nil {
		return errResp(err)
	}
	return &transport.Response{Status: transport.StatusOK}
}

func (n *Node) handleRemove(req *transport.Request) *transport.Response {
	bs, err := n.get(req.Bag, true)
	if err != nil {
		return errResp(err)
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	chunk, ok, err := bs.b.remove()
	if err != nil {
		return errResp(err)
	}
	if !ok {
		if bs.sealed {
			return &transport.Response{Status: transport.StatusEmpty, Sealed: true}
		}
		return &transport.Response{Status: transport.StatusAgain}
	}
	// Report the post-remove read pointer: clients replicate it to the
	// slot's backups before delivering the chunk (§4.4).
	_, rc, _, _ := bs.b.stats()
	return &transport.Response{
		Status: transport.StatusOK, Data: chunk,
		ReadChunks: rc, Sealed: bs.sealed,
	}
}

func (n *Node) handleSeal(req *transport.Request) *transport.Response {
	bs, err := n.get(req.Bag, true)
	if err != nil {
		return errResp(err)
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	bs.sealed = true
	return &transport.Response{Status: transport.StatusOK, Sealed: true}
}

func (n *Node) handleSample(req *transport.Request) *transport.Response {
	bs, err := n.get(req.Bag, false)
	if err != nil {
		return errResp(err)
	}
	if bs == nil {
		// A bag with no local state is an empty, unsealed bag.
		return &transport.Response{Status: transport.StatusOK}
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	tc, rc, tb, rb := bs.b.stats()
	return &transport.Response{
		Status:      transport.StatusOK,
		TotalChunks: tc, ReadChunks: rc,
		TotalBytes: tb, ReadBytes: rb,
		Sealed: bs.sealed,
	}
}

// handleRewind positions the bag's read pointer at chunk index req.Arg
// (0 replays the bag from the start). Rewind is used for failure recovery
// — rewinding the inputs of a restarted task — and for pointer
// synchronization to backup replicas.
func (n *Node) handleRewind(req *transport.Request) *transport.Response {
	bs, err := n.get(req.Bag, true)
	if err != nil {
		return errResp(err)
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if err := bs.b.rewindTo(req.Arg); err != nil {
		return errResp(err)
	}
	return &transport.Response{Status: transport.StatusOK}
}

// handleAdvance moves the read pointer forward to req.Arg if it is
// currently behind it. Backup replicas apply advances from the client's
// pointer synchronization; the monotonicity makes concurrent syncs from
// batch-sampling fetchers commute, so a failover target never rewinds
// behind the furthest chunk already delivered (exactly-once across
// storage failover).
func (n *Node) handleAdvance(req *transport.Request) *transport.Response {
	bs, err := n.get(req.Bag, true)
	if err != nil {
		return errResp(err)
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	tc, rc, _, _ := bs.b.stats()
	if req.Arg > rc {
		pos := req.Arg
		if pos > tc {
			pos = tc
		}
		if err := bs.b.rewindTo(pos); err != nil {
			return errResp(err)
		}
	}
	return &transport.Response{Status: transport.StatusOK}
}

func (n *Node) handleDiscard(req *transport.Request) *transport.Response {
	bs, err := n.get(req.Bag, false)
	if err != nil {
		return errResp(err)
	}
	if bs == nil {
		return &transport.Response{Status: transport.StatusOK}
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if err := bs.b.discard(); err != nil {
		return errResp(err)
	}
	bs.sealed = false
	return &transport.Response{Status: transport.StatusOK}
}

func (n *Node) handleDelete(req *transport.Request) *transport.Response {
	n.mu.Lock()
	bs, ok := n.bags[req.Bag]
	delete(n.bags, req.Bag)
	n.mu.Unlock()
	if !ok {
		return &transport.Response{Status: transport.StatusOK}
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if err := bs.b.destroy(); err != nil {
		return errResp(err)
	}
	return &transport.Response{Status: transport.StatusOK}
}

// handleDeletePrefix garbage collects every bag whose name starts with
// req.Bag, and drops matching shuffle-edge sketch state. The scheduler
// discards a completed job's namespace with one request per node, which
// also covers runtime-derived names (partition bags, isolated-key bags,
// clone partials) no client-side enumeration could produce.
func (n *Node) handleDeletePrefix(req *transport.Request) *transport.Response {
	if req.Bag == "" {
		return errResp(fmt.Errorf("storage: refusing to delete the empty prefix"))
	}
	n.mu.Lock()
	var victims []*bagState
	for name, bs := range n.bags {
		if strings.HasPrefix(name, req.Bag) {
			victims = append(victims, bs)
			delete(n.bags, name)
		}
	}
	n.mu.Unlock()
	n.sketchMu.Lock()
	for edge := range n.sketches {
		if strings.HasPrefix(edge, req.Bag) {
			delete(n.sketches, edge)
		}
	}
	n.sketchMu.Unlock()
	for _, bs := range victims {
		bs.mu.Lock()
		err := bs.b.destroy()
		bs.mu.Unlock()
		if err != nil {
			return errResp(err)
		}
	}
	return &transport.Response{Status: transport.StatusOK}
}

// handleRename atomically renames a bag. Used to adopt a sole worker's
// partial output as the task's final output without copying data.
func (n *Node) handleRename(req *transport.Request) *transport.Response {
	if req.Dst == "" {
		return errResp(fmt.Errorf("storage: rename without destination"))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	bs, ok := n.bags[req.Bag]
	if !ok {
		// Nothing stored locally for the source bag: the destination is
		// simply (locally) empty. Succeed so cluster-wide rename is easy.
		return &transport.Response{Status: transport.StatusOK}
	}
	if _, exists := n.bags[req.Dst]; exists {
		return errResp(fmt.Errorf("storage: rename target %q exists", req.Dst))
	}
	delete(n.bags, req.Bag)
	n.bags[req.Dst] = bs
	return &transport.Response{Status: transport.StatusOK}
}

// handleSketch serves the shuffle-edge control exchange; the three request
// forms are described at transport.OpSketch. Edge state is advisory — it
// only steers routing balance and what later runs warm-start from — so it
// is deliberately not persisted.
func (n *Node) handleSketch(req *transport.Request) *transport.Response {
	switch {
	case req.Dst != "":
		// Producer push: keep the stats as received.
		if len(req.Data) > 0 {
			n.sketchMu.Lock()
			if n.sketches[req.Bag] == nil {
				n.sketches[req.Bag] = make(map[string][]byte)
			}
			n.sketches[req.Bag][req.Dst] = rightSize(req.Data)
			n.sketchMu.Unlock()
		}
		return &transport.Response{Status: transport.StatusOK}
	case req.Arg == transport.SketchClear:
		n.sketchMu.Lock()
		delete(n.sketches, req.Bag)
		n.sketchMu.Unlock()
		return &transport.Response{Status: transport.StatusOK}
	}
	n.sketchMu.Lock()
	blobs := make([][]byte, 0, len(n.sketches[req.Bag]))
	for _, b := range n.sketches[req.Bag] {
		blobs = append(blobs, b)
	}
	n.sketchMu.Unlock()
	return &transport.Response{Status: transport.StatusOK, Data: mergeStats(blobs).AppendTo(nil)}
}

// mergeStats decodes and merges the producers' stats blobs. Blobs are
// stored unvalidated, so this is where a corrupt one surfaces: it is
// skipped — as is one whose sketch dimensions disagree with the others' —
// and the remaining producers still merge. Stats are advisory; one bad
// producer must not blind the master to the rest.
func mergeStats(blobs [][]byte) *sketch.EdgeStats {
	merged := sketch.NewEdgeStats()
	for _, b := range blobs {
		if st, err := sketch.DecodeEdgeStats(b); err == nil {
			_ = merged.Merge(st) // a failed Merge leaves merged untouched: skipped
		}
	}
	return merged
}

// handleReadAt returns chunk req.Arg without consuming it, supporting
// shared full-bag scans ("allowing multiple workers to read an entire bag
// concurrently", §4.3).
func (n *Node) handleReadAt(req *transport.Request) *transport.Response {
	bs, err := n.get(req.Bag, true)
	if err != nil {
		return errResp(err)
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	chunk, ok, err := bs.b.readAt(req.Arg)
	if err != nil {
		return errResp(err)
	}
	if !ok {
		if bs.sealed {
			return &transport.Response{Status: transport.StatusEmpty, Sealed: true}
		}
		return &transport.Response{Status: transport.StatusAgain}
	}
	return &transport.Response{Status: transport.StatusOK, Data: chunk, Sealed: bs.sealed}
}
