// Package bag implements the client side of Hurricane's data bag
// abstraction.
//
// A bag is an unordered collection of fixed-size chunks spread uniformly
// across all storage nodes. Bags expose two main operations — Insert(chunk)
// and Remove() — with the guarantee that every chunk inserted is removed
// exactly once, by exactly one of the (possibly many) concurrent consumers.
// This is the substrate for task cloning: clones of a task share the task's
// input bag, each removing disjoint chunks at its own pace (late binding of
// data to workers, §2.2).
//
// Placement follows the paper's scheme (§3.3): each bag has a pseudorandom
// cyclic permutation of the storage nodes; inserts walk the permutation so
// chunks spread evenly, and removes probe nodes in permutation order.
// Consumers use batch sampling — at most b outstanding requests to b
// different storage nodes — which keeps storage utilization at
// ρ(b,m) = 1 − (1 − 1/m)^{bm} (Eq. 1) and doubles as flow control.
//
// The package also implements the paper's primary-backup replication
// (§4.4): with replication factor r, each logical storage slot is mirrored
// on r physical nodes, the read pointer is synchronized to backups on every
// remove, and clients fail over to a backup when the primary is down.
package bag

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/chunk"
	"repro/internal/sketch"
	"repro/internal/transport"
)

// DefaultBatchFactor is the number of outstanding storage requests per
// consumer. The paper picks b = 10, which gives over 99% storage
// utilization even for thousands of storage nodes.
const DefaultBatchFactor = 10

// Config describes the storage cluster as seen by a bag client.
type Config struct {
	// Nodes is the ordered list of storage node names.
	Nodes []string
	// Client is the transport used to reach storage nodes.
	Client transport.Client
	// ChunkSize is the chunk size for writers (default chunk.DefaultSize).
	ChunkSize int
	// BatchFactor is the batch sampling factor b (default 10).
	BatchFactor int
	// Replication is the number of physical replicas per logical slot.
	// 1 (or 0) means no replication; r = n+1 tolerates n storage node
	// failures.
	Replication int
	// PollInterval is the retry delay when probing unsealed bags
	// (default 2ms).
	PollInterval time.Duration
}

func (c *Config) chunkSize() int {
	if c.ChunkSize <= 0 {
		return chunk.DefaultSize
	}
	return c.ChunkSize
}

func (c *Config) batchFactor() int {
	if c.BatchFactor <= 0 {
		return DefaultBatchFactor
	}
	return c.BatchFactor
}

func (c *Config) replication() int {
	if c.Replication <= 1 {
		return 1
	}
	return c.Replication
}

func (c *Config) pollInterval() time.Duration {
	if c.PollInterval <= 0 {
		return 2 * time.Millisecond
	}
	return c.PollInterval
}

// Store is a handle to the storage cluster through which bags are created
// and manipulated. It is safe for concurrent use.
type Store struct {
	cfg Config

	mu    sync.RWMutex
	nodes []string        // physical nodes, index = logical slot
	down  map[string]bool // nodes believed crashed (failover view)

	// removeLocks serialize remove + backup-pointer-sync per slot when
	// replication is on, so a remove served by a failing primary cannot
	// race with a fresh remove against the backup before the pointer
	// sync lands. Keyed by slot index. Removes against different slots
	// (the batch-sampling common case) stay fully parallel.
	removeMu    sync.Mutex
	removeLocks map[int]*sync.Mutex
}

// NewStore returns a Store over the configured cluster.
func NewStore(cfg Config) (*Store, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("bag: no storage nodes configured")
	}
	if cfg.Client == nil {
		return nil, errors.New("bag: no transport client configured")
	}
	if cfg.Replication > len(cfg.Nodes) {
		return nil, fmt.Errorf("bag: replication %d exceeds node count %d",
			cfg.Replication, len(cfg.Nodes))
	}
	return &Store{
		cfg:         cfg,
		nodes:       append([]string(nil), cfg.Nodes...),
		down:        make(map[string]bool),
		removeLocks: make(map[int]*sync.Mutex),
	}, nil
}

// Nodes returns the current physical node list.
func (s *Store) Nodes() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.nodes...)
}

// NumSlots returns the number of logical storage slots (= node count).
func (s *Store) NumSlots() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.nodes)
}

// ChunkSize returns the configured chunk size.
func (s *Store) ChunkSize() int { return s.cfg.chunkSize() }

// BatchFactor returns the configured batch sampling factor.
func (s *Store) BatchFactor() int { return s.cfg.batchFactor() }

// AddNode appends a storage node to the cluster view (§3.4). Bags whose
// handles are created after this call spread data over the enlarged
// cluster.
func (s *Store) AddNode(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nodes = append(s.nodes, name)
}

// MarkDown records that a physical node has failed, diverting subsequent
// requests to its backups. The application master calls this when it
// detects a storage node failure ("the application master informs each
// compute node to use a backup storage node", §4.4).
func (s *Store) MarkDown(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down[name] = true
}

// MarkUp clears a node's failed status.
func (s *Store) MarkUp(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.down, name)
}

// replicas returns the physical nodes hosting logical slot i, primary
// first.
func (s *Store) replicas(slot int) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r := s.cfg.replication()
	out := make([]string, 0, r)
	m := len(s.nodes)
	for j := 0; j < r; j++ {
		out = append(out, s.nodes[(slot+j)%m])
	}
	return out
}

// primary returns the first live replica of a slot and the backup list.
func (s *Store) primary(slot int) (string, []string, error) {
	reps := s.replicas(slot)
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, n := range reps {
		if !s.down[n] {
			rest := make([]string, 0, len(reps)-1)
			rest = append(rest, reps[:i]...)
			rest = append(rest, reps[i+1:]...)
			return n, rest, nil
		}
	}
	return "", nil, fmt.Errorf("bag: all replicas of slot %d are down", slot)
}

// removeLock returns the per-slot remove serialization lock.
func (s *Store) removeLock(slot int) *sync.Mutex {
	s.removeMu.Lock()
	defer s.removeMu.Unlock()
	l, ok := s.removeLocks[slot]
	if !ok {
		l = &sync.Mutex{}
		s.removeLocks[slot] = l
	}
	return l
}

// slotBag returns the per-slot bag key. Each logical slot stores its share
// of a bag under a distinct key so that one physical node can host several
// slots (primary for its own, backup for neighbours).
func slotBag(name string, slot int) string {
	return name + "#" + strconv.Itoa(slot)
}

// slotBags returns the bag's key on each of m slots. Bag and Scanner
// handles hold the list so the data path (insert, remove, readAt) formats
// no name per request.
func slotBags(name string, m int) []string {
	out := make([]string, m)
	for slot := range out {
		out[slot] = slotBag(name, slot)
	}
	return out
}

// callSlot issues req against the slot's primary, failing over to backups
// on node-down errors.
func (s *Store) callSlot(ctx context.Context, slot int, req *transport.Request) (*transport.Response, error) {
	resp, _, err := s.callSlotServed(ctx, slot, req)
	return resp, err
}

// callSlotServed is callSlot but also reports which physical node served
// the request, so remove-pointer synchronization can target the other
// replicas.
func (s *Store) callSlotServed(ctx context.Context, slot int, req *transport.Request) (*transport.Response, string, error) {
	reps := s.replicas(slot)
	var lastErr error
	for _, n := range reps {
		s.mu.RLock()
		isDown := s.down[n]
		s.mu.RUnlock()
		if isDown {
			continue
		}
		resp, err := s.cfg.Client.Call(ctx, n, req)
		if err == nil {
			return resp, n, nil
		}
		if errors.Is(err, transport.ErrNodeDown) {
			s.MarkDown(n)
			lastErr = err
			continue
		}
		return nil, "", err
	}
	if lastErr == nil {
		lastErr = transport.ErrNodeDown
	}
	return nil, "", fmt.Errorf("bag: slot %d unavailable: %w", slot, lastErr)
}

// broadcastSlot issues req to every live replica of a slot, failing if any
// live replica fails.
func (s *Store) broadcastSlot(ctx context.Context, slot int, req *transport.Request) error {
	_, err := s.broadcastSlotReply(ctx, slot, req)
	return err
}

// broadcastSlotReply is broadcastSlot returning the reply of the first live
// replica — the one callSlot would have asked.
func (s *Store) broadcastSlotReply(ctx context.Context, slot int, req *transport.Request) (*transport.Response, error) {
	reps := s.replicas(slot)
	var first *transport.Response
	for _, n := range reps {
		s.mu.RLock()
		isDown := s.down[n]
		s.mu.RUnlock()
		if isDown {
			continue
		}
		resp, err := s.cfg.Client.Call(ctx, n, req)
		if err != nil {
			if errors.Is(err, transport.ErrNodeDown) {
				s.MarkDown(n)
				continue
			}
			return nil, err
		}
		if err := resp.Error(); err != nil {
			return nil, err
		}
		if first == nil {
			first = resp
		}
	}
	if first == nil {
		return nil, fmt.Errorf("bag: slot %d: %w", slot, transport.ErrNodeDown)
	}
	return first, nil
}

// permFor returns the bag's pseudorandom cyclic permutation of logical
// slots, a pure function of the bag name and the slot count so that all
// clients agree on it. Every handle and every sketch exchange derives it,
// so it costs one hash and the returned slice: a Fisher–Yates shuffle
// driven by splitmix64 steps from the name's FNV-1a hash.
func (s *Store) permFor(name string) []int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime64
	}
	perm := make([]int, s.NumSlots())
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		h += 0x9e3779b97f4a7c15
		z := (h ^ h>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		j := (z ^ z>>31) % uint64(i+1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// Bag returns a handle to the named bag. Handles are cheap; any number may
// exist for the same bag across any number of workers.
func (s *Store) Bag(name string) *Bag {
	perm := s.permFor(name)
	return &Bag{
		store: s,
		name:  name,
		perm:  perm,
		slots: slotBags(name, len(perm)),
		pos:   rand.Intn(len(perm)), // writers start at random offsets
	}
}

// Seal marks the bag complete on every slot: no further inserts are
// accepted and consumers that drain it observe a definitive end-of-bag.
func (s *Store) Seal(ctx context.Context, name string) error {
	return s.fanout(ctx, name, &transport.Request{Op: transport.OpSeal})
}

// Rewind resets the bag's read pointer on every slot, replaying its
// contents for the next consumer ("reusing the contents of a bag", §4.3,
// and input rewind during failure recovery, §4.4).
func (s *Store) Rewind(ctx context.Context, name string) error {
	return s.fanout(ctx, name, &transport.Request{Op: transport.OpRewind, Arg: 0})
}

// Discard drops the bag's contents on every slot (output invalidation
// during compute-node failure recovery, §4.4).
func (s *Store) Discard(ctx context.Context, name string) error {
	return s.fanout(ctx, name, &transport.Request{Op: transport.OpDiscard})
}

// Delete garbage collects the bag on every slot.
func (s *Store) Delete(ctx context.Context, name string) error {
	return s.fanout(ctx, name, &transport.Request{Op: transport.OpDelete})
}

// DeletePrefix garbage collects every bag whose name starts with prefix
// on every storage node — including slot bags of names derived at
// runtime (partition splits, isolated-key bags, clone partials) that the
// caller cannot enumerate. The multi-job scheduler uses it to discard a
// completed job's namespace in one sweep. Down nodes are skipped: a bag
// they held is unreachable anyway, and replicas (if any) are covered by
// the per-node broadcast.
func (s *Store) DeletePrefix(ctx context.Context, prefix string) error {
	if prefix == "" {
		return fmt.Errorf("bag: refusing to delete the empty prefix")
	}
	req := &transport.Request{Op: transport.OpDeletePrefix, Bag: prefix}
	var ok int
	for _, n := range s.Nodes() {
		s.mu.RLock()
		isDown := s.down[n]
		s.mu.RUnlock()
		if isDown {
			continue
		}
		resp, err := s.cfg.Client.Call(ctx, n, req)
		if err != nil {
			if errors.Is(err, transport.ErrNodeDown) {
				s.MarkDown(n)
				continue
			}
			return err
		}
		if err := resp.Error(); err != nil {
			return err
		}
		ok++
	}
	if ok == 0 {
		return fmt.Errorf("bag: delete prefix %q: %w", prefix, transport.ErrNodeDown)
	}
	return nil
}

// Rename atomically renames a bag on every slot. Both names must hash to
// permutations over the same slot count.
func (s *Store) Rename(ctx context.Context, from, to string) error {
	m := s.NumSlots()
	for slot := 0; slot < m; slot++ {
		req := &transport.Request{
			Op:  transport.OpRename,
			Bag: slotBag(from, slot),
			Dst: slotBag(to, slot),
		}
		if err := s.broadcastSlot(ctx, slot, req); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) fanout(ctx context.Context, name string, tmpl *transport.Request) error {
	m := s.NumSlots()
	for slot := 0; slot < m; slot++ {
		req := *tmpl
		req.Bag = slotBag(name, slot)
		if err := s.broadcastSlot(ctx, slot, &req); err != nil {
			return err
		}
	}
	return nil
}

// Stats aggregates bag statistics across all slots.
type Stats struct {
	TotalChunks int64
	ReadChunks  int64
	TotalBytes  int64
	ReadBytes   int64
	Sealed      bool // true only if every slot is sealed
}

// RemainingChunks returns the number of unconsumed chunks.
func (st Stats) RemainingChunks() int64 { return st.TotalChunks - st.ReadChunks }

// RemainingBytes returns the number of unconsumed bytes.
func (st Stats) RemainingBytes() int64 { return st.TotalBytes - st.ReadBytes }

// sketchSlot returns the logical slot hosting a shuffle edge's sketch
// state. Edge statistics are per-edge metadata, not per-slot data, so they
// live on a single deterministic home slot (the first slot of the edge's
// permutation); all producers and the master agree on it by construction.
func (s *Store) sketchSlot(name string) int { return s.permFor(name)[0] }

// ExchangeSketch is a producer's control exchange for a shuffle edge (see
// transport.OpSketch): it leaves the producer's cumulative stats blob
// (nil to report nothing yet) under (edge, writerID) on the edge's home
// slot — a re-push replaces the previous blob, so storage-side merging
// across producers never double-counts — and returns the newest published
// partition map, encoded, if its version is above mapVersion (nil
// otherwise). stats passes to the storage node: the caller must not write
// to it afterwards.
func (s *Store) ExchangeSketch(ctx context.Context, edge, writerID string, stats []byte, mapVersion int) ([]byte, error) {
	if writerID == "" {
		return nil, errors.New("bag: sketch exchange without a writer ID")
	}
	resp, err := s.broadcastSlotReply(ctx, s.sketchSlot(edge), &transport.Request{
		Op: transport.OpSketch, Bag: edge, Dst: writerID, Data: stats, Arg: int64(mapVersion),
	})
	if err != nil {
		return nil, err
	}
	return resp.Data, nil
}

// PublishSketchMap leaves an encoded partition map of the given version on
// the edge's home slot, where producers' exchanges pick it up. The slot
// keeps the newest version it has seen, so publishing is idempotent and
// order-insensitive.
func (s *Store) PublishSketchMap(ctx context.Context, edge string, version int, pmap []byte) error {
	return s.broadcastSlot(ctx, s.sketchSlot(edge), &transport.Request{
		Op: transport.OpSketch, Bag: edge, Data: pmap, Arg: int64(version),
	})
}

// DeleteSketch drops the edge's control state — producer stats and the
// published map — on its home slot. The master calls it when an edge's
// producers finish (the state has served its purpose) and when failure
// recovery discards the edge's data (so stale cumulative pushes from an
// aborted epoch cannot double-count records the restarted producers will
// re-push; the master then publishes its current map again).
func (s *Store) DeleteSketch(ctx context.Context, edge string) error {
	return s.broadcastSlot(ctx, s.sketchSlot(edge), &transport.Request{
		Op: transport.OpSketch, Bag: edge, Arg: transport.SketchClear,
	})
}

// FetchSketch returns the merge of every producer's pushed statistics for
// the edge (empty stats if nothing was pushed yet).
func (s *Store) FetchSketch(ctx context.Context, edge string) (*sketch.EdgeStats, error) {
	resp, err := s.callSlot(ctx, s.sketchSlot(edge), &transport.Request{
		Op: transport.OpSketch, Bag: edge,
	})
	if err != nil {
		return nil, err
	}
	if err := resp.Error(); err != nil {
		return nil, err
	}
	if len(resp.Data) == 0 {
		return sketch.NewEdgeStats(), nil
	}
	return sketch.DecodeEdgeStats(resp.Data)
}

// Sample aggregates the bag's statistics across every slot. The cloning
// heuristic uses this to estimate how much work remains in a task's input
// (§4.2: "T is estimated by sampling the input bag").
func (s *Store) Sample(ctx context.Context, name string) (Stats, error) {
	var st Stats
	st.Sealed = true
	m := s.NumSlots()
	for slot := 0; slot < m; slot++ {
		resp, err := s.callSlot(ctx, slot, &transport.Request{
			Op:  transport.OpSample,
			Bag: slotBag(name, slot),
		})
		if err != nil {
			return st, err
		}
		if err := resp.Error(); err != nil {
			return st, err
		}
		st.TotalChunks += resp.TotalChunks
		st.ReadChunks += resp.ReadChunks
		st.TotalBytes += resp.TotalBytes
		st.ReadBytes += resp.ReadBytes
		st.Sealed = st.Sealed && resp.Sealed
	}
	return st, nil
}
