package shuffle

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// heavyAdmitFraction is the share of the stream that guarantees a key a
// place among the heavy-hitter candidates: 1/heavyAdmitFraction of the
// records written so far.
const heavyAdmitFraction = 16

// stretchFeedFraction sets which keys of a stretch reach the count-min
// sketch and the candidate list: those with at least 1/stretchFeedFraction
// of the stretch's records (drainCounts). A quarter of the guaranteed
// share, so a candidate's count is never below the key's true count by more
// than records/stretchFeedFraction, and noteHeavy admits at the guaranteed
// share less that much.
const stretchFeedFraction = 4 * heavyAdmitFraction

// WriterConfig configures a partitioned writer.
type WriterConfig struct {
	// Store is the bag store the physical partition bags live in.
	Store *bag.Store
	// Edge is the logical partitioned bag name.
	Edge string
	// Parts is the edge's base partition count.
	Parts int
	// Map is the edge's seed map, fixed when its job was submitted (the
	// engine fills it in). Nil means BaseMap(Edge, Parts).
	Map *PartitionMap
	// WriterID does nothing; the frozen benchmark's routing probe sets it.
	WriterID string
	// Obs, when set, receives the edge's record/byte counters (flushed at
	// Close, off the per-record hot path). Job labels the series.
	Obs *obs.Observer
	Job string
	// OnSpans, when set, is invoked once at Close with the writer's
	// profiler accounting: nanoseconds spent inserting flushed chunks and
	// draining pipelines, total records routed, the encoded chunk bytes
	// handed to the leaf inserters, and the per-partition record
	// breakdown. Nil keeps clock reads off the flush path entirely; the
	// engine's TaskCtx.ShuffleWriter always sets it.
	OnSpans func(flushNS, records, bytes int64, parts map[string]int64)
}

// leafOut is the write pipeline for one physical partition bag: a pipelined
// inserter plus the exact count of records handed to it (the master's
// primary load signal).
type leafOut struct {
	name  string
	ins   *bag.Inserter
	count uint64
}

// Writer routes records to the physical partition bags of one shuffle
// edge and keeps the edge's statistics — exact per-leaf record counts and
// the heavy-key candidates — which is what makes the shuffle skew-aware.
// It has two halves. Routing (route.go) decides, per record, which leaf bag
// takes it, counts its key exactly within the current stretch of the
// stream, and at the end of a stretch feeds the keys heavy in it to the
// count-min sketch and the candidate list (noteHeavy).
// Insertion (InsertBatchChunk) takes the chunks those records were encoded
// into — by a Scatter's leaf encoders — and owns the
// per-leaf inserters and record counts. A writer has no control traffic:
// its statistics (Stats) travel once, in its worker's done record, and the
// master merges the producers' at seal. A Writer is used by one producer
// worker goroutine; concurrent producer workers each create their own.
type Writer struct {
	ctx context.Context
	cfg WriterConfig

	// The routing table and its shape, set together by adopt.
	pm    *PartitionMap
	plain bool   // no isolations
	base  uint64 // pm.Base
	mask  uint64 // base-1 when base is a power of two above one, else 0

	// otherWidth is the width guard: set when a key of other than 8 bytes is
	// routed, before it is counted, and never cleared. Blocks of 8-byte keys
	// take the word loop only while it is unset (route.go).
	otherWidth bool

	closed bool // by Close: every later write is chunk.ErrClosed

	// outs caches one insert pipeline per routing decision.
	outs map[RouteRef]*leafOut
	// raw is the scatter behind Write: records that are already bytes.
	raw *Scatter[[]byte]

	stats    *sketch.EdgeStats
	heavyIdx map[string]int // key -> index into stats.Heavy

	n       uint64 // records routed
	drained uint64 // n at the last drain of the count table
	feeds   uint64 // keys the drains fed to the sketch
	bytes   uint64 // encoded chunk bytes handed to the inserters

	// Routing scratch (route.go): the routing vector of the last
	// PartitionBatchUint64 and the exact key count table between drains.
	refs  []RouteRef
	tab   [countTabSlots]countSlot
	long  [][]byte    // per tab slot, the bytes of a key longer than 8; nil until one is counted
	floor uint32      // a slot stamped above it holds a key of this stretch
	hot   [256]uint16 // slots whose count reached feedLine this stretch, in that order
	nhot  uint8       // of hot, the slots listed: at most stretchFeedFraction, and a uint8 indexes hot unchecked

	flushNS int64 // see timed
}

// NewWriter creates a writer for the edge, routing by cfg.Map for its whole
// life.
func NewWriter(ctx context.Context, cfg WriterConfig) *Writer {
	w := &Writer{
		ctx:      ctx,
		cfg:      cfg,
		outs:     make(map[RouteRef]*leafOut),
		stats:    sketch.NewEdgeStats(),
		heavyIdx: make(map[string]int),
	}
	pm := cfg.Map
	if pm == nil {
		pm = BaseMap(cfg.Edge, cfg.Parts)
	}
	w.adopt(pm)
	return w
}

// Map returns the writer's partition map (for tests/inspection).
func (w *Writer) Map() *PartitionMap { return w.pm }

// rawRecord carries records that are already encoded. It has no columnar
// view of its own, so Write's leaf encoders write its records into the
// blob view's one column, each at its Write: a record may alias memory the
// caller reuses.
type rawRecord struct{}

func (rawRecord) Encode(buf, rec []byte) []byte          { return append(buf, rec...) }
func (rawRecord) Decode(rec []byte) ([]byte, int, error) { return rec, len(rec), nil }

// Write routes one already-encoded record by key into a batch chunk of its
// physical partition bag, a blob column of records: a Scatter whose records
// are bytes, so it shares every step — route, key count, leaf encoder,
// insert — with the typed writers above it. It is kept for the frozen
// benchmark's routing probe; no engine path calls it.
func (w *Writer) Write(key, rec []byte) error {
	if w.closed {
		return chunk.ErrClosed
	}
	if w.raw == nil {
		w.raw = NewScatter[[]byte](w, rawRecord{}, nil)
	}
	return w.raw.leaf(w.RouteKey(key)).enc.Append(rec)
}

// InsertBatchChunk hands one encoded batch chunk of rows records to the
// inserter of the leaf ref addresses. This is where a
// scatter's leaf encoders flush, and the one place the edge's byte and
// per-leaf record counts advance — so every producer API is
// indistinguishable to the control plane and to the metrics.
func (w *Writer) InsertBatchChunk(ref RouteRef, c chunk.Chunk, rows int) error {
	out := w.outs[ref]
	if out == nil {
		name := w.pm.RefName(ref)
		out = &leafOut{name: name, ins: w.cfg.Store.Bag(name).Inserter(w.ctx)}
		w.outs[ref] = out
	}
	if err := w.timed(func() error { return out.ins.Insert(c) }); err != nil {
		return err
	}
	out.count += uint64(rows)
	w.bytes += uint64(len(c))
	return nil
}

// timed runs fn — an insert, or the wait for the inserts outstanding — and,
// when cfg.OnSpans is set, credits its wall time to the profiler's shuffle
// phase. Without cfg.OnSpans it reads no clock.
func (w *Writer) timed(fn func() error) error {
	if w.cfg.OnSpans == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	w.flushNS += time.Since(start).Nanoseconds()
	return err
}

// noteHeavy maintains the heavy-hitter candidate list — with the per-leaf
// counts, all of a writer's statistics that anything reads: the master, the
// policies, the planner and every warm start (the count-min cells only
// price the candidates, whenever they are admitted). key was just fed to
// the sketch and est is its estimate: never below the key's true count by
// more than records/stretchFeedFraction (what unfed stretches held of it),
// never above it by more than the count-min error over the fed keys. A
// candidate takes every estimate, so the bound holds for the whole list,
// and a key is admitted once its estimate plus that slack reaches the
// guaranteed share — at 3/64 of the stream so far — so every key with a
// true share of 1/heavyAdmitFraction is a candidate. A full list gives its
// lightest candidate's place to a heavier newcomer: a sorted or drifting
// stream fills the list with keys that stopped coming long before the key
// that matters shows up.
func (w *Writer) noteHeavy(key []byte, est uint64) {
	if i, ok := w.heavyIdx[string(key)]; ok {
		w.stats.Heavy[i].Count = est
		return
	}
	// est + n/stretchFeedFraction < n/heavyAdmitFraction, in integers.
	if est*stretchFeedFraction+w.n < w.n*(stretchFeedFraction/heavyAdmitFraction) {
		return
	}
	i := len(w.stats.Heavy)
	if i < sketch.MaxHeavyKeys {
		w.stats.Heavy = append(w.stats.Heavy, sketch.HeavyKey{})
	} else {
		i = 0
		for j, h := range w.stats.Heavy {
			if h.Count < w.stats.Heavy[i].Count {
				i = j
			}
		}
		if est <= w.stats.Heavy[i].Count {
			return
		}
		delete(w.heavyIdx, string(w.stats.Heavy[i].Key))
	}
	w.stats.Heavy[i] = sketch.HeavyKey{Key: append([]byte(nil), key...), Count: est}
	w.heavyIdx[string(key)] = i
}

// Stats returns the writer's statistics of its edge: the exact record
// count of every leaf it wrote and the heavy-key candidates, without the
// count-min cells that priced them. After Close they are the writer's
// totals, which its worker's done record carries to the master.
func (w *Writer) Stats() *sketch.EdgeStats {
	st := &sketch.EdgeStats{Counts: make(map[string]uint64, len(w.outs)), Heavy: slices.Clone(w.stats.Heavy)}
	for _, out := range w.outs {
		st.Counts[out.name] = out.count
	}
	return st
}

// Close flushes the raw-record scatter's open chunks, waits for all
// outstanding inserts, and drains the last stretch of key counts, so that
// Stats returns the writer's exact totals.
// A typed Scatter over this writer closes its own leaf encoders first
// (Scatter.Close). It must be called (and its error checked) before the
// producer reports completion — the engine's TaskCtx.OnFinish hook does
// this automatically for writers created through the public API. Closing a
// closed writer does nothing.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	var firstErr error
	if w.raw != nil {
		if err := w.raw.flush(); err != nil {
			firstErr = fmt.Errorf("shuffle: flushing %s: %w", w.cfg.Edge, err)
		}
	}
	if err := w.timed(w.Drain); err != nil && firstErr == nil {
		firstErr = err
	}
	w.drainCounts()
	w.flushMetrics()
	if w.cfg.OnSpans != nil {
		parts := make(map[string]int64, len(w.outs))
		for _, out := range w.outs {
			parts[out.name] = int64(out.count)
		}
		w.cfg.OnSpans(w.flushNS, int64(w.n), int64(w.bytes), parts)
	}
	return firstErr
}

// Drain waits for every insert the writer has handed to its leaf inserters
// and returns the first error among them. Close drains; a producer that is
// killed instead calls Drain alone, so that nothing of it is still on its
// way into a leaf bag once it is gone.
func (w *Writer) Drain() error {
	var firstErr error
	for _, out := range w.outs {
		if err := out.ins.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shuffle: closing %s: %w", out.name, err)
		}
	}
	return firstErr
}

// flushMetrics accumulates the writer's lifetime totals into the edge's
// labeled counters. Deferred to Close so the per-record hot path never
// touches the registry; concurrent producer writers of the same edge add
// into the same series.
func (w *Writer) flushMetrics() {
	if w.cfg.Obs == nil {
		return
	}
	labels := []string{"job", w.cfg.Job, "edge", w.cfg.Edge}
	w.cfg.Obs.Counter("hurricane_shuffle_records_total", labels...).Add(w.n)
	w.cfg.Obs.Counter("hurricane_shuffle_bytes_total", labels...).Add(w.bytes)
	// Feeds over records is the share of the stream that paid for a sketch
	// update: at most 1/heavyAdmitFraction over the full stretches, every one
	// but the last.
	w.cfg.Obs.Counter("hurricane_shuffle_sketch_feeds_total", labels...).Add(w.feeds)
	for _, out := range w.outs {
		w.cfg.Obs.Counter("hurricane_shuffle_partition_records_total",
			"job", w.cfg.Job, "edge", w.cfg.Edge, "part", out.name).Add(out.count)
	}
}
