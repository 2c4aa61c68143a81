// Package storage implements Hurricane storage nodes.
//
// A storage node stores the local portion of every bag: an append-only
// sequence of chunks, each under the id its writer chose, plus which of
// them are taken. Inserts append; a remove takes the first untaken chunk
// and returns it with its id (§4.3 of the paper: bags are implemented as
// regular files and the append is atomic). A chunk is taken at most once
// per rewind, so every chunk is delivered to exactly one task clone.
//
// A replicated slot holds its chunks on several nodes, and two inserts may
// land on them in different orders. The replicas therefore agree on which
// ids are taken, never on positions: before a client delivers a chunk one
// replica served, it takes the chunk's id on the others (transport.OpTake).
//
// Two backends are provided: an in-memory backend (the default for the
// embedded engine and tests) and a disk backend that stores each bag as a
// file in a directory, mirroring the paper's ext4 implementation. Both
// only store chunks; what is taken lives in bagState, once.
package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// backend is a bag's append-only chunk store.
type backend interface {
	// insert appends a chunk under its writer's id.
	insert(id uint64, chunk []byte) error
	// read returns chunk i's payload, 0 <= i < count.
	read(i int64) ([]byte, error)
	// meta returns chunk i's id and payload size.
	meta(i int64) (id uint64, size int64)
	// count returns the number of chunks stored and their total bytes.
	count() (chunks, bytes int64)
	// discard drops all contents, resetting the bag to empty.
	discard() error
	// destroy releases all resources (files, memory).
	destroy() error
}

// bagState is a bag's local state on one storage node: its chunks and
// which of them are taken. Every chunk before next is taken, next itself
// is not (or is the end), and taken holds the chunks after next that an
// OpTake claimed out of order.
type bagState struct {
	mu     sync.Mutex
	b      backend
	sealed bool

	next     int64
	taken    map[int64]bool
	byID     map[uint64]int64 // chunk index by id, built on the first take
	tombs    map[uint64]bool  // ids taken before their insert landed
	nTaken   int64
	takenLen int64 // bytes of the taken chunks
}

// insert appends a chunk. An id taken before it landed lands taken.
func (s *bagState) insert(id uint64, c []byte) error {
	if err := s.b.insert(id, c); err != nil {
		return err
	}
	last, _ := s.b.count()
	last--
	if s.byID != nil {
		s.byID[id] = last
	}
	if s.tombs[id] {
		delete(s.tombs, id)
		s.mark(last)
	}
	return nil
}

// mark takes chunk i.
func (s *bagState) mark(i int64) {
	_, size := s.b.meta(i)
	s.nTaken++
	s.takenLen += size
	if i != s.next {
		if s.taken == nil {
			s.taken = make(map[int64]bool)
		}
		s.taken[i] = true
		return
	}
	for s.next++; s.taken[s.next]; s.next++ {
		delete(s.taken, s.next)
	}
}

// take takes the chunk with the given id and reports whether the caller
// won it. An id not stored yet is remembered, so its insert lands taken.
func (s *bagState) take(id uint64) bool {
	if s.byID == nil {
		n, _ := s.b.count()
		s.byID = make(map[uint64]int64, n)
		for i := int64(0); i < n; i++ {
			cid, _ := s.b.meta(i)
			s.byID[cid] = i
		}
	}
	i, ok := s.byID[id]
	switch {
	case !ok && s.tombs[id]:
		return false
	case !ok:
		if s.tombs == nil {
			s.tombs = make(map[uint64]bool)
		}
		s.tombs[id] = true
		return true
	case i < s.next || s.taken[i]:
		return false
	}
	s.mark(i)
	return true
}

// untakeAll makes every chunk untaken and forgets every tombstone.
func (s *bagState) untakeAll() {
	s.next, s.taken, s.tombs, s.nTaken, s.takenLen = 0, nil, nil, 0, 0
}

// Node is a single Hurricane storage node. It implements
// transport.Handler, so it can be served by any transport.
type Node struct {
	name string

	mu       sync.Mutex
	bags     map[string]*bagState
	draining bool

	newBackend func(bag string) (backend, error)

	// meter, when bound, records per-op telemetry for every request
	// this node handles, regardless of which transport delivered it.
	meter atomic.Pointer[transport.Meter]
	obs   atomic.Pointer[obs.Observer]
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
		name: name,
		bags: make(map[string]*bagState),
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
}

// Stats summarizes the node: per-bag chunk/byte counts, stored and taken,
// sorted by name, plus node-wide totals.
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
		tc, tb := bs.b.count()
		rc, rb, sealed := bs.nTaken, bs.takenLen, bs.sealed
		bs.mu.Unlock()
		st.Bags = append(st.Bags, BagStats{
			Bag: name, TotalChunks: tc, ReadChunks: rc,
			TotalBytes: tb, ReadBytes: rb, Sealed: sealed,
		})
		st.TotalChunks += tc
		st.TotalBytes += tb
	}
	sort.Slice(st.Bags, func(i, j int) bool { return st.Bags[i].Bag < st.Bags[j].Bag })
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
		n.mu.Lock()
		draining := n.draining
		n.mu.Unlock()
		if draining {
			return &transport.Response{Status: transport.StatusRemoved}
		}
		return n.locked(req, (*bagState).handleInsert)
	case transport.OpRemove:
		return n.locked(req, (*bagState).handleRemove)
	case transport.OpSeal:
		return n.locked(req, (*bagState).handleSeal)
	case transport.OpSample:
		return n.handleSample(req)
	case transport.OpRewind:
		return n.locked(req, (*bagState).handleRewind)
	case transport.OpTake:
		return n.locked(req, (*bagState).handleTake)
	case transport.OpDiscard:
		return n.handleDiscard(req)
	case transport.OpDelete:
		return n.handleDelete(req)
	case transport.OpDeletePrefix:
		return n.handleDeletePrefix(req)
	case transport.OpRename:
		return n.handleRename(req)
	case transport.OpReadAt:
		return n.locked(req, (*bagState).handleReadAt)
	default:
		return errResp(fmt.Errorf("storage: unknown op %v", req.Op))
	}
}

// locked serves a request on its bag, created if missing, under the bag's
// lock.
func (n *Node) locked(req *transport.Request, op func(*bagState, *transport.Request) *transport.Response) *transport.Response {
	bs, err := n.get(req.Bag, true)
	if err != nil {
		return errResp(err)
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return op(bs, req)
}

func (s *bagState) handleInsert(req *transport.Request) *transport.Response {
	if s.sealed {
		return errResp(fmt.Errorf("storage: insert into sealed bag %q", req.Bag))
	}
	if err := s.insert(uint64(req.Arg), req.Data); err != nil {
		return errResp(err)
	}
	return &transport.Response{Status: transport.StatusOK}
}

// handleRemove takes the first untaken chunk. Its answer also counts the
// chunks taken, this one included (ReadChunks), beside the bag's chunk
// count (TotalChunks): on a sealed bag the two agree once the last one is
// taken, so the reader need not ask again to learn the bag is drained.
func (s *bagState) handleRemove(*transport.Request) *transport.Response {
	resp := s.chunkAt(s.next)
	if resp.OK() {
		s.mark(s.next)
		resp.ReadChunks = s.nTaken
	}
	return resp
}

// chunkAt answers a read of chunk i: the chunk, its id and the bag's chunk
// count, or the end of the bag as it stands.
func (s *bagState) chunkAt(i int64) *transport.Response {
	n, _ := s.b.count()
	if i < 0 || i >= n {
		if s.sealed {
			return &transport.Response{Status: transport.StatusEmpty, Sealed: true}
		}
		return &transport.Response{Status: transport.StatusAgain}
	}
	c, err := s.b.read(i)
	if err != nil {
		return errResp(err)
	}
	id, _ := s.b.meta(i)
	return &transport.Response{Status: transport.StatusOK, Data: c, ID: id, TotalChunks: n, Sealed: s.sealed}
}

func (s *bagState) handleSeal(*transport.Request) *transport.Response {
	s.sealed = true
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
	tc, tb := bs.b.count()
	return &transport.Response{
		Status:      transport.StatusOK,
		TotalChunks: tc, ReadChunks: bs.nTaken,
		TotalBytes: tb, ReadBytes: bs.takenLen,
		Sealed: bs.sealed,
	}
}

// handleRewind marks every chunk of the bag untaken, replaying it from the
// start: input rewind for a restarted task (§4.4) and bag reuse (§4.3).
func (s *bagState) handleRewind(*transport.Request) *transport.Response {
	s.untakeAll()
	return &transport.Response{Status: transport.StatusOK}
}

// handleTake takes chunk id req.Arg on this replica (see transport.OpTake).
func (s *bagState) handleTake(req *transport.Request) *transport.Response {
	if !s.take(uint64(req.Arg)) {
		return &transport.Response{Status: transport.StatusEmpty}
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
	bs.untakeAll()
	bs.byID, bs.sealed = nil, false
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
// req.Bag. Discarding a job sends one per node for each prefix the job
// claims, which also covers runtime-derived names (partition bags, clone
// partials) no client-side enumeration could produce.
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

// handleReadAt returns chunk req.Arg and its id without taking it,
// supporting shared full-bag scans ("allowing multiple workers to read an
// entire bag concurrently", §4.3).
func (s *bagState) handleReadAt(req *transport.Request) *transport.Response {
	return s.chunkAt(req.Arg)
}
