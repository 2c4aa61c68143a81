package bag

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/chunk"
	"repro/internal/transport"
)

// ErrEmpty is returned by Remove when the bag is sealed and every chunk has
// been consumed: the definitive end-of-bag signal that lets a worker
// terminate ("the remove operation fails when a bag is empty, allowing a
// worker to terminate", §2.2).
var ErrEmpty = transport.ErrEmpty

// ErrAgain is returned by Poll when no chunk is currently available but the
// bag has not been sealed.
var ErrAgain = transport.ErrAgain

// Bag is a client handle to a named bag. A handle may be used by one
// goroutine at a time; create one handle per worker (handles are cheap and
// all handles to the same name address the same data).
type Bag struct {
	store *Store
	name  string
	perm  []int
	slots []string // per-slot bag keys, index = logical slot
	pos   int      // next insert position within perm

	cons     *consumer // lazily started remove pipeline
	quiesced bool      // wind down instead of fetching more (Quiesce)
}

// Name returns the bag's name.
func (b *Bag) Name() string { return b.name }

// Store returns the owning store.
func (b *Bag) Store() *Store { return b.store }

// refresh re-derives the slot permutation if storage nodes were added
// since the handle was created (§3.4), so writers start placing chunks on
// the new nodes.
func (b *Bag) refresh() {
	if m := b.store.NumSlots(); m != len(b.perm) {
		b.perm = b.store.permFor(b.name)
		b.slots = slotBags(b.name, m)
	}
}

// nextSlot returns the next logical slot in pseudorandom cyclic order.
func (b *Bag) nextSlot() int {
	b.refresh()
	slot := b.perm[b.pos%len(b.perm)]
	b.pos++
	return slot
}

// Insert writes one chunk to the next storage node in the bag's
// pseudorandom cyclic order. With replication enabled the chunk is written
// to every replica of the slot before Insert returns.
func (b *Bag) Insert(ctx context.Context, c chunk.Chunk) error {
	slot := b.nextSlot()
	req := &transport.Request{Op: transport.OpInsert, Bag: b.slots[slot], Data: c}
	return b.store.broadcastSlot(ctx, slot, req)
}

// Remove returns the next chunk, or ErrEmpty once the bag is sealed and
// drained. The first call starts a batch-sampling prefetch pipeline with b
// outstanding requests to distinct storage nodes; subsequent calls are
// served from the pipeline. The exactly-once guarantee holds across any
// number of concurrent consumers (clones), because the per-slot read
// pointer on the storage node is the single point of truth.
func (b *Bag) Remove(ctx context.Context) (chunk.Chunk, error) {
	if b.cons == nil {
		if b.quiesced {
			return nil, ErrEmpty
		}
		b.cons = newConsumer(b)
	}
	return b.cons.next(ctx)
}

// Quiesce winds the consumer down without losing data: the prefetch
// pipeline stops issuing new removes against storage, chunks it already
// consumed keep flowing out of Remove, and once they are drained Remove
// reports ErrEmpty — exactly the end-of-bag protocol, just early. This
// is the data-safe half of cooperative preemption: a yielded worker must
// still process every chunk the pipeline took from the bag, because a
// consumed chunk dropped on the floor is lost forever. Must be called
// from the goroutine that calls Remove.
func (b *Bag) Quiesce() {
	b.quiesced = true
	if b.cons != nil {
		b.cons.quiesce()
	}
}

// CloseConsumer stops the prefetch pipeline, if one is running. Chunks
// already prefetched but not yet returned by Remove are lost to this
// handle (they have been consumed from the bag); callers should drain to
// ErrEmpty in normal operation and rely on task restart for recovery.
func (b *Bag) CloseConsumer() {
	if b.cons != nil {
		b.cons.stop()
		b.cons = nil
	}
}

// Poll makes a single sweep over the storage nodes looking for one chunk.
// It returns ErrAgain if every node is currently empty but the bag is
// unsealed, and ErrEmpty if the bag is sealed and drained. Poll is the
// consumption primitive for work bags, which are never sealed while the
// application runs.
func (b *Bag) Poll(ctx context.Context) (chunk.Chunk, error) {
	b.refresh()
	m := len(b.perm)
	start := rand.Intn(m)
	empty := 0
	for i := 0; i < m; i++ {
		slot := b.perm[(start+i)%m]
		resp, _, err := b.removeFromSlot(ctx, slot)
		if err != nil {
			return nil, err
		}
		switch resp.Status {
		case transport.StatusOK:
			return resp.Data, nil
		case transport.StatusEmpty:
			empty++
		case transport.StatusAgain:
			// keep sweeping
		default:
			return nil, resp.Error()
		}
	}
	if empty == m {
		return nil, ErrEmpty
	}
	return nil, ErrAgain
}

// removeFromSlot performs one remove against a slot, synchronizing the
// read pointer to the slot's other replicas before returning the chunk.
// With replication on, the remove+sync pair is serialized per slot so
// failover cannot interleave a fresh remove between a primary-served
// remove and its pointer sync (which would re-deliver chunks).
func (b *Bag) removeFromSlot(ctx context.Context, slot int) (*transport.Response, string, error) {
	replicated := b.store.cfg.replication() > 1
	if replicated {
		l := b.store.removeLock(slot)
		l.Lock()
		defer l.Unlock()
	}
	resp, served, err := b.store.callSlotServed(ctx, slot, &transport.Request{
		Op:  transport.OpRemove,
		Bag: b.slots[slot],
	})
	if err != nil {
		return nil, "", err
	}
	if replicated && resp.Status == transport.StatusOK {
		if err := b.syncPointer(ctx, slot, resp.ReadChunks, served); err != nil {
			return nil, "", err
		}
	}
	return resp, served, nil
}

// syncPointer propagates the read pointer to every other live replica of
// the slot so a failover target resumes from the right position (§4.4:
// bag state such as the file pointer is replicated). The advance is
// monotonic, so concurrent syncs from the batch-sampling fetchers commute,
// and it completes before the chunk is delivered to the application,
// which is what makes delivery exactly-once across a primary failure.
func (b *Bag) syncPointer(ctx context.Context, slot int, pos int64, servedBy string) error {
	for _, n := range b.store.replicas(slot) {
		if n == servedBy {
			continue
		}
		b.store.mu.RLock()
		isDown := b.store.down[n]
		b.store.mu.RUnlock()
		if isDown {
			continue
		}
		resp, err := b.store.cfg.Client.Call(ctx, n, &transport.Request{
			Op:  transport.OpAdvance,
			Bag: b.slots[slot],
			Arg: pos,
		})
		if err != nil {
			if errors.Is(err, transport.ErrNodeDown) {
				b.store.MarkDown(n)
				continue
			}
			return err
		}
		if err := resp.Error(); err != nil {
			return err
		}
	}
	return nil
}

// ---- batch-sampling consumer ----

type fetchResult struct {
	c   chunk.Chunk
	err error
}

// consumer implements the remove-side batch sampling pipeline: b worker
// goroutines each keep one request outstanding against a distinct storage
// node, and completed chunks flow into a buffered channel that Remove
// drains. When a slot reports a sealed empty bag it is retired; when all
// slots are retired the stream ends.
type consumer struct {
	b      *Bag
	ctx    context.Context
	cancel context.CancelFunc
	ch     chan fetchResult
	wg     sync.WaitGroup

	mu        sync.Mutex
	done      []bool // per-slot: sealed and drained
	pending   int    // live slots
	cursor    int    // next index into perm to hand out
	quiescing bool   // fetchers exit instead of removing more chunks
}

func newConsumer(b *Bag) *consumer {
	ctx, cancel := context.WithCancel(context.Background())
	m := len(b.perm)
	f := b.store.BatchFactor()
	if f > m {
		f = m
	}
	c := &consumer{
		b:       b,
		ctx:     ctx,
		cancel:  cancel,
		ch:      make(chan fetchResult, f),
		done:    make([]bool, m),
		pending: m,
	}
	for i := 0; i < f; i++ {
		c.wg.Add(1)
		go c.fetchLoop()
	}
	// End-of-bag is signalled by closing the channel only after every
	// fetcher has exited, so a chunk held by a slow fetcher can never be
	// overtaken by the end-of-bag signal (which would silently drop it —
	// the chunk is already consumed from storage).
	go func() {
		c.wg.Wait()
		close(c.ch)
	}()
	return c
}

// nextSlot returns the next live slot in cyclic permutation order, or -1
// when all slots are retired. It takes c.mu itself.
func (c *consumer) nextSlot() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending == 0 {
		return -1
	}
	m := len(c.b.perm)
	for i := 0; i < m; i++ {
		slot := c.b.perm[c.cursor%m]
		c.cursor++
		if !c.done[slot] {
			return slot
		}
	}
	return -1
}

func (c *consumer) retire(slot int) (remaining int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.done[slot] {
		c.done[slot] = true
		c.pending--
	}
	return c.pending
}

// quiesce makes every fetcher exit before its next remove. Chunks
// already fetched (buffered in the channel or held by an in-flight
// request) still reach Remove; the channel then closes, ending the bag
// early for this handle only.
func (c *consumer) quiesce() {
	c.mu.Lock()
	c.quiescing = true
	c.mu.Unlock()
}

func (c *consumer) fetchLoop() {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		stop := c.quiescing
		c.mu.Unlock()
		if stop {
			return
		}
		slot := c.nextSlot()
		if slot < 0 {
			// All slots drained. The channel close (after all fetchers
			// exit) is the end-of-bag signal.
			return
		}
		resp, _, err := c.b.removeFromSlot(c.ctx, slot)
		if err != nil {
			if c.ctx.Err() != nil {
				return
			}
			select {
			case c.ch <- fetchResult{err: err}:
			case <-c.ctx.Done():
			}
			return
		}
		switch resp.Status {
		case transport.StatusOK:
			select {
			case c.ch <- fetchResult{c: resp.Data}:
			case <-c.ctx.Done():
				return
			}
		case transport.StatusEmpty:
			c.retire(slot)
		case transport.StatusAgain:
			// Unsealed and momentarily empty: back off briefly. This
			// only happens for streaming-style consumption; batch tasks
			// read sealed bags.
			timer := time.NewTimer(pollInterval)
			select {
			case <-timer.C:
			case <-c.ctx.Done():
				timer.Stop()
				return
			}
		default:
			select {
			case c.ch <- fetchResult{err: resp.Error()}:
			case <-c.ctx.Done():
			}
			return
		}
	}
}

func (c *consumer) next(ctx context.Context) (chunk.Chunk, error) {
	select {
	case r, ok := <-c.ch:
		if !ok {
			return nil, ErrEmpty
		}
		return r.c, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.ctx.Done():
		return nil, c.ctx.Err()
	}
}

func (c *consumer) stop() {
	c.cancel()
	c.wg.Wait()
}

// ---- pipelined inserter ----

// Inserter provides a pipelined insert path with at most b outstanding
// insert requests, mirroring batch sampling on the write side. Errors are
// reported on the next Insert or on Close.
type Inserter struct {
	b    *Bag
	ctx  context.Context
	sem  chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	errv error
}

// Inserter returns a pipelined inserter for the bag.
func (b *Bag) Inserter(ctx context.Context) *Inserter {
	f := b.store.BatchFactor()
	return &Inserter{b: b, ctx: ctx, sem: make(chan struct{}, f)}
}

func (i *Inserter) setErr(err error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.errv == nil {
		i.errv = err
	}
}

// Err returns the first asynchronous insert error, if any.
func (i *Inserter) Err() error {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.errv
}

// Insert enqueues one chunk, blocking while b inserts are outstanding.
func (i *Inserter) Insert(c chunk.Chunk) error {
	if err := i.Err(); err != nil {
		return err
	}
	// Slot selection must happen synchronously to preserve the cyclic
	// order; only the RPC itself is asynchronous.
	slot := i.b.nextSlot()
	bagKey := i.b.slots[slot] // read here: the handle's goroutine owns slots
	select {
	case i.sem <- struct{}{}:
	case <-i.ctx.Done():
		return i.ctx.Err()
	}
	i.wg.Add(1)
	go func() {
		defer func() {
			<-i.sem
			i.wg.Done()
		}()
		req := &transport.Request{Op: transport.OpInsert, Bag: bagKey, Data: c}
		if err := i.b.store.broadcastSlot(i.ctx, slot, req); err != nil {
			i.setErr(err)
		}
	}()
	return nil
}

// Close waits for all outstanding inserts and returns the first error.
func (i *Inserter) Close() error {
	i.wg.Wait()
	return i.Err()
}
