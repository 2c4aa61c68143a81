package shuffle

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// DefaultStatsInterval stands in for WriterConfig.StatsInterval where the
// writer does not know its master's: the paper's 2 s decision cadence
// (§4.2).
const DefaultStatsInterval = 2 * time.Second

// exchangesPerInterval is how many control exchanges a writer makes, at
// most, per master stats fetch: enough that the stats a fetch merges are
// never staler than a quarter of the master's own period, few enough that
// control traffic is set by the master's clock and not by the record rate.
const exchangesPerInterval = 4

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
	// WriterID identifies this producer worker for cumulative sketch
	// pushes (typically the worker's blueprint ID).
	WriterID string
	// StatsInterval is the interval at which the edge's master fetches the
	// merged producer stats (MasterConfig.SplitInterval; the engine fills it
	// in). The writer makes its control exchange at most four times per
	// interval. Zero means DefaultStatsInterval.
	StatsInterval time.Duration
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
// into — by a Scatter's leaf encoders, whatever the layout — and owns the
// per-leaf inserters and record counts. Its whole control plane is one
// push to the edge's home slot (bag.Store.ExchangeSketch): it leaves its
// cumulative stats there for the master. The push is gated on time, not on
// records — at most once per gate at a tick, the first one gate after
// NewWriter, and once more at Close — so its cost follows the master's
// decision cadence whatever the record rate. A Writer is used by
// one producer worker goroutine; concurrent producer workers each create
// their own (their stats merge storage-side).
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
	batches uint64 // of those chunks, the batch-layout ones

	gate      time.Duration // minimum gap between exchanges
	exchanged time.Time     // when the last exchange started, or NewWriter ran
	statsLen  int           // size of the last stats blob, to size the next

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
	if cfg.StatsInterval <= 0 {
		cfg.StatsInterval = DefaultStatsInterval
	}
	w := &Writer{
		ctx:       ctx,
		cfg:       cfg,
		gate:      cfg.StatsInterval / exchangesPerInterval,
		statsLen:  5 << 10, // first guess: a byte per fresh sketch counter, and change
		outs:      make(map[RouteRef]*leafOut),
		stats:     sketch.NewEdgeStats(),
		heavyIdx:  make(map[string]int),
		exchanged: time.Now(),
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

// rawRecord frames records that are already encoded. It is row-only, so
// Write's leaf encoders take their row arm.
type rawRecord struct{}

func (rawRecord) Encode(buf, rec []byte) []byte          { return append(buf, rec...) }
func (rawRecord) Decode(rec []byte) ([]byte, int, error) { return rec, len(rec), nil }

// Write routes one already-encoded record by key into a row chunk of its
// physical partition bag: a Scatter whose records are bytes, so it shares
// every step — route, key count, leaf encoder, insert — with the typed
// writers above it.
func (w *Writer) Write(key, rec []byte) error {
	if w.closed {
		return chunk.ErrClosed
	}
	if w.raw == nil {
		w.raw = NewScatter[[]byte](w, rawRecord{}, nil)
	}
	return w.raw.leaf(w.RouteKey(key)).enc.Append(rec)
}

// InsertBatchChunk hands one encoded chunk of rows records, row or batch
// layout, to the inserter of the leaf ref addresses. This is where a
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
	if chunk.IsBatch(c) {
		w.batches++
	}
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

// tick is the work a writer does once per tickEvery records, ahead of the
// first of them: the exact key counts of the stretch just routed go to the
// sketch, and the control exchange runs if its gate has passed.
func (w *Writer) tick() {
	w.drainCounts()
	if time.Since(w.exchanged) >= w.gate {
		w.exchange()
	}
}

// exchange leaves the writer's cumulative stats on the edge's home slot;
// a writer that has routed nothing has none to leave. Per-leaf counts live
// on the leaf pipelines during writing and are snapshotted here.
// Best-effort: detection is advisory, and a lost push costs the master
// fresh statistics, never a record.
func (w *Writer) exchange() {
	w.exchanged = time.Now()
	if w.n == 0 {
		return
	}
	// The leaves only grow, so refilling the one map leaves no stale entry
	// behind.
	for _, out := range w.outs {
		w.stats.Counts[out.name] = out.count
	}
	// A blob of its own per exchange: the storage node keeps the one it is
	// given (transport.Request.Data).
	stats := w.stats.AppendTo(make([]byte, 0, w.statsLen+w.statsLen/8))
	w.statsLen = len(stats)
	_ = w.cfg.Store.ExchangeSketch(w.ctx, w.cfg.Edge, w.cfg.WriterID, stats)
}

// Close flushes the raw-record scatter's open chunks, waits for all
// outstanding inserts, and makes a final exchange, whatever the gate says,
// so the stats the master fetches afterwards are the writer's exact totals.
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
	w.exchange()
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
	if w.batches > 0 {
		w.cfg.Obs.Counter("hurricane_chunk_batches_total", labels...).Add(w.batches)
	}
	for _, out := range w.outs {
		w.cfg.Obs.Counter("hurricane_shuffle_partition_records_total",
			"job", w.cfg.Job, "edge", w.cfg.Edge, "part", out.name).Add(out.count)
	}
}
