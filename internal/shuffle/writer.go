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

// rowCheckEvery is how many records the row path writes between looks at
// the clock (the batch path looks once per batch).
const rowCheckEvery = 1024

// DefaultSketchSample feeds every 8th record into the count-min sketch
// (with weight 8), keeping the sketch off the per-record hot path while
// leaving heavy-hitter estimates unbiased. Partition counts stay exact —
// they are one map increment.
const DefaultSketchSample = 8

// heavyAdmitFraction admits a key into the heavy-hitter candidate list
// when its estimated count exceeds 1/heavyAdmitFraction of the records
// written so far.
const heavyAdmitFraction = 16

// WriterConfig configures a partitioned writer.
type WriterConfig struct {
	// Store is the bag store the physical partition bags live in.
	Store *bag.Store
	// Edge is the logical partitioned bag name.
	Edge string
	// Parts is the edge's base partition count.
	Parts int
	// WriterID identifies this producer worker for cumulative sketch
	// pushes (typically the worker's blueprint ID).
	WriterID string
	// Partitioner overrides the base partitioner (default HashPartitioner).
	Partitioner Partitioner
	// StatsInterval is the interval at which the edge's master fetches the
	// merged producer stats (MasterConfig.SplitInterval; the engine fills it
	// in). The writer makes its control exchange at most four times per
	// interval. Zero means DefaultStatsInterval.
	StatsInterval time.Duration
	// SketchSample overrides the 1-in-N sketch sampling rate.
	SketchSample int
	// Obs, when set, receives the edge's record/byte counters (flushed at
	// Close, off the per-record hot path) and map-adoption trace events.
	// Job labels the series.
	Obs *obs.Observer
	Job string
	// OnSpans, when set, is invoked once at Close with the writer's
	// profiler accounting: nanoseconds spent inserting flushed chunks and
	// draining pipelines, total records routed, and the per-partition
	// record breakdown. Nil keeps clock reads off the flush path entirely
	// (the engine sets it only while span profiling is on).
	OnSpans func(flushNS, records int64, parts map[string]int64)
}

// leafOut is the write pipeline for one physical partition bag: a chunk
// framer flushing into a pipelined inserter, plus the exact count of
// records routed there (the master's primary load signal).
type leafOut struct {
	name  string
	w     *chunk.Writer
	ins   *bag.Inserter
	count uint64
}

// Writer routes records to the physical partition bags of one shuffle
// edge and feeds key counts into the edge's count-min sketch, which is
// what makes the shuffle skew-aware. Its whole control plane is one
// exchange with the edge's home slot (bag.Store.ExchangeSketch): it leaves
// its cumulative stats there for the master and gets back the newest
// partition map if the master has published one since. The exchange is
// gated on time, not on records — before the first record, then at most
// once per gate at a batch boundary, and once more at Close — so its cost
// follows the master's decision cadence whatever the record rate. A Writer
// is used by one producer worker goroutine; concurrent producer workers
// each create their own (their stats merge storage-side).
type Writer struct {
	ctx context.Context
	cfg WriterConfig
	pm  *PartitionMap
	// outs caches one write pipeline per routing decision. RouteRefs are
	// name-stable across map versions (refinements only add partitions),
	// so the cache survives map adoption.
	outs map[RouteRef]*leafOut

	stats    *sketch.EdgeStats
	heavyIdx map[string]int // key -> index into stats.Heavy

	n     uint64 // records written
	bytes uint64 // record payload bytes written
	rr    int    // round-robin counter for spread isolations

	gate      time.Duration // minimum gap between exchanges
	exchanged time.Time     // when the last exchange started; zero before the first
	statsLen  int           // size of the last stats blob, to size the next

	// Batch-path state (see batch.go): routing-vector scratch and per-batch
	// key count aggregation for bulk sketch feeds.
	refs      []RouteRef
	batchTab  []batchSlot // open-addressed count table, reused across batches
	batchLive []int32     // occupied batchTab slots, for drain + reset
	lastSlot  *batchSlot  // count slot of the previous record, if still live
	lastHash  uint64      // its routing hash (slot identity check)
	batches   uint64

	// flushNS accumulates time blocked inserting flushed chunks and
	// draining pipelines — the profiler's shuffle phase. Only advanced
	// when cfg.OnSpans is set.
	flushNS int64
}

// NewWriter creates a writer for the edge. The initial routing table is
// the locally derived base map; newer versions are adopted from the
// edge's home slot as the control exchange brings them.
func NewWriter(ctx context.Context, cfg WriterConfig) *Writer {
	if cfg.Partitioner == nil {
		cfg.Partitioner = HashPartitioner{}
	}
	if cfg.StatsInterval <= 0 {
		cfg.StatsInterval = DefaultStatsInterval
	}
	if cfg.SketchSample <= 0 {
		cfg.SketchSample = DefaultSketchSample
	}
	return &Writer{
		ctx:      ctx,
		cfg:      cfg,
		pm:       BaseMap(cfg.Edge, cfg.Parts),
		gate:     cfg.StatsInterval / exchangesPerInterval,
		statsLen: 5 << 10, // first guess: a byte per fresh sketch counter, and change
		outs:     make(map[RouteRef]*leafOut),
		stats:    sketch.NewEdgeStats(),
		heavyIdx: make(map[string]int),
	}
}

// Map returns the writer's current partition map (for tests/inspection).
func (w *Writer) Map() *PartitionMap { return w.pm }

// Write routes one record by key to its physical partition bag.
func (w *Writer) Write(key, rec []byte) error {
	if w.n%rowCheckEvery == 0 {
		w.exchangeIfDue()
	}
	ref := w.pm.RouteRefWith(w.cfg.Partitioner, key, w.rr)
	w.rr++
	out := w.outs[ref]
	if out == nil {
		out = w.newLeaf(ref)
	}
	if err := out.w.Append(rec); err != nil {
		return err
	}
	w.bytes += uint64(len(rec))
	if w.n%uint64(w.cfg.SketchSample) == 0 {
		w.stats.CM.Add(key, uint64(w.cfg.SketchSample))
		w.noteHeavy(key)
	}
	w.n++
	out.count++
	return nil
}

// newLeaf creates the write pipeline for a routing decision.
func (w *Writer) newLeaf(ref RouteRef) *leafOut {
	name := w.pm.RefName(ref)
	ins := w.cfg.Store.Bag(name).Inserter(w.ctx)
	out := &leafOut{
		name: name,
		ins:  ins,
		w: chunk.NewWriter(w.cfg.Store.ChunkSize(), func(c chunk.Chunk) error {
			if w.cfg.OnSpans == nil {
				return ins.Insert(c)
			}
			start := time.Now()
			err := ins.Insert(c)
			w.flushNS += time.Since(start).Nanoseconds()
			return err
		}),
	}
	w.outs[ref] = out
	return out
}

// noteHeavy maintains the heavy-hitter candidate list: a key whose
// count-min estimate exceeds 1/16 of the stream so far is a candidate.
// Candidate counts are count-min estimates (one-sided error), which is
// all the master's isolation decision needs.
func (w *Writer) noteHeavy(key []byte) {
	est := w.stats.CM.Estimate(key)
	if est*heavyAdmitFraction < w.n {
		return
	}
	if i, ok := w.heavyIdx[string(key)]; ok {
		w.stats.Heavy[i].Count = est
		return
	}
	if len(w.stats.Heavy) >= sketch.MaxHeavyKeys {
		return
	}
	w.heavyIdx[string(key)] = len(w.stats.Heavy)
	w.stats.Heavy = append(w.stats.Heavy, sketch.HeavyKey{
		Key: append([]byte(nil), key...), Count: est,
	})
}

// exchangeIfDue runs the control exchange if the writer has never made one
// (so the first record already routes by the newest map, a warm-start seed
// included) or the gate has passed since the last.
func (w *Writer) exchangeIfDue() {
	if w.exchanged.IsZero() || time.Since(w.exchanged) >= w.gate {
		w.exchange()
	}
}

// exchange leaves the writer's cumulative stats on the edge's home slot and
// adopts the partition map that comes back, if one does. Per-leaf counts
// live on the leaf pipelines during writing and are snapshotted here.
// Best-effort throughout: detection is advisory, and routing by a stale map
// is always correct, only less balanced.
func (w *Writer) exchange() {
	w.exchanged = time.Now()
	var stats []byte
	if w.n > 0 {
		counts := make(map[string]uint64, len(w.outs))
		for _, out := range w.outs {
			counts[out.name] = out.count
		}
		w.stats.Counts = counts
		// A blob of its own per exchange: the storage node keeps the one
		// it is given (transport.Request.Data).
		stats = w.stats.AppendTo(make([]byte, 0, w.statsLen+w.statsLen/8))
		w.statsLen = len(stats)
	}
	newer, err := w.cfg.Store.ExchangeSketch(w.ctx, w.cfg.Edge, w.cfg.WriterID, stats, w.pm.Version)
	if err != nil || len(newer) == 0 {
		return
	}
	pm, err := DecodePartitionMap(newer)
	if err != nil || pm.Bag != w.cfg.Edge || pm.Version <= w.pm.Version {
		return // ignore foreign/corrupt/stale maps
	}
	w.pm = pm
	w.cfg.Obs.Emit(obs.EvMapRevision, w.cfg.Job, w.cfg.Edge,
		fmt.Sprintf("adopted version=%d writer=%s", pm.Version, w.cfg.WriterID))
}

// Close flushes every partition bag's buffered chunks, waits for all
// outstanding inserts, and makes a final exchange, whatever the gate says,
// so the stats the master fetches afterwards are the writer's exact totals.
// It must be called (and its error checked) before the producer reports
// completion — the engine's TaskCtx.OnFinish hook does this automatically
// for writers created through the public API.
func (w *Writer) Close() error {
	var firstErr error
	for _, out := range w.outs {
		if err := out.w.Flush(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shuffle: flushing %s: %w", out.name, err)
		}
	}
	for _, out := range w.outs {
		var t0 time.Time
		if w.cfg.OnSpans != nil {
			t0 = time.Now()
		}
		err := out.ins.Close()
		if w.cfg.OnSpans != nil {
			w.flushNS += time.Since(t0).Nanoseconds()
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shuffle: closing %s: %w", out.name, err)
		}
	}
	w.exchange()
	w.flushMetrics()
	if w.cfg.OnSpans != nil {
		parts := make(map[string]int64, len(w.outs))
		for _, out := range w.outs {
			parts[out.name] = int64(out.count)
		}
		w.cfg.OnSpans(w.flushNS, int64(w.n), parts)
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
	if w.batches > 0 {
		w.cfg.Obs.Counter("hurricane_chunk_batches_total", labels...).Add(w.batches)
	}
	for _, out := range w.outs {
		w.cfg.Obs.Counter("hurricane_shuffle_partition_records_total",
			"job", w.cfg.Job, "edge", w.cfg.Edge, "part", out.name).Add(out.count)
	}
}
