package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro/hurricane"
	"repro/hurricane/q"
	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/ctrl"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/shuffle"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Layer probes call each layer's public functions directly, on the first
// probeTuples tuples of the workload's own input, and report the median of
// probeReps repetitions. They price one layer in isolation; the traced jobs
// say how often the engine calls it.
const (
	probeTuples = 256 << 10
	probeReps   = 9
	probeBatch  = 4096 // rows per batch: one 64 KiB chunk of 16-byte tuples
	probeChunk  = 32 << 10
	probeCalls  = 2000
)

type probeSet struct {
	reps int
	*passResult
}

// per times fn p.reps times and reports the median duration divided by ops,
// in the unit's scale (1 for ns, 1e3 for us).
func (p *probeSet) per(name, unit string, ops int, fn func()) {
	scale := 1.0
	if unit == "us" {
		scale = 1e3
	}
	vals := make([]float64, p.reps)
	for i := range vals {
		t0 := time.Now()
		fn()
		vals[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops) / scale
	}
	p.set(name, unit, quantile(vals, 0.5), p.reps)
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("probe: %v", err))
	}
}

// probeStore is a one-node in-proc bag store with the workload's chunk
// size: the smallest thing a shuffle writer or a bag handle can run on.
func probeStore(chunkSize int) (*bag.Store, *transport.InProc, *storage.Node) {
	inproc := transport.NewInProc()
	node := storage.NewNode("probe-0")
	inproc.Register("probe-0", node)
	store, err := bag.NewStore(bag.Config{Nodes: []string{"probe-0"}, Client: inproc, ChunkSize: chunkSize})
	must(err)
	return store, inproc, node
}

func runProbes(res *passResult, w *workload, in *input, reps int) {
	p := &probeSet{reps: reps, passResult: res}
	ts := in.probe[:min(probeTuples, len(in.probe))]
	n := len(ts)
	ctx := context.Background()

	// ---- chunk: batch and row codecs ----
	cc, _ := chunk.ColumnarOf(tupleCodec)
	bulk, _ := chunk.BulkOf(cc)
	scratch, _ := any(cc).(chunk.ScratchColumnCodec[tuple])
	kinds := chunk.KindsOf(cc)
	idx := make([]int32, probeBatch)
	for i := range idx {
		idx[i] = int32(i)
	}
	var batches []chunk.Chunk
	p.per("chunk.batch_encode_ns_per_rec", "ns", n, func() {
		batches = batches[:0]
		b := chunk.GetBatchBuilder(0, kinds)
		for lo := 0; lo < n; lo += probeBatch {
			rows := ts[lo:min(lo+probeBatch, n)]
			bulk.EncodeRows(b, 0, rows, idx[:len(rows)])
			b.EndRows(len(rows))
			batches = append(batches, b.Encode())
			b.Clear()
		}
		chunk.PutBatchBuilder(b)
	})
	p.set("chunk.batch_bytes_per_rec", "B", float64(chunkBytes(batches))/float64(n), 1)
	p.per("chunk.batch_decode_ns_per_rec", "ns", n, func() {
		var bt chunk.Batch
		var vec []tuple
		for _, c := range batches {
			bp, err := chunk.DecodeBatch(c, &bt)
			must(err)
			vec, _, err = scratch.DecodeColumnScratch(bp, 0, vec[:0])
			must(err)
		}
	})
	var rows []chunk.Chunk
	p.per("chunk.row_encode_ns_per_rec", "ns", n, func() {
		rows = rows[:0]
		tw := chunk.NewTypedWriter(tupleCodec, w.chunkSize, func(c chunk.Chunk) error {
			rows = append(rows, append(chunk.Chunk(nil), c...))
			return nil
		})
		for _, t := range ts {
			must(tw.Write(t))
		}
		must(tw.Flush())
	})
	p.set("chunk.row_bytes_per_rec", "B", float64(chunkBytes(rows))/float64(n), 1)
	p.per("chunk.row_decode_ns_per_rec", "ns", n, func() {
		it := chunk.NewSliceIterator(tupleCodec, rows)
		for {
			if _, err := it.Next(); err == io.EOF {
				return
			} else {
				must(err)
			}
		}
	})

	// ---- shuffle: routing and partition-map decode ----
	store, inproc, node := probeStore(w.chunkSize)
	keys := make([]uint64, n)
	for i, t := range ts {
		keys[i] = t.First
	}
	edge := 0
	newWriter := func() *shuffle.Writer {
		edge++
		return shuffle.NewWriter(ctx, shuffle.WriterConfig{Store: store,
			Edge: fmt.Sprintf("probe.e%d", edge), Parts: w.parts, WriterID: "probe"})
	}
	p.per("shuffle.route_batch_ns_per_rec", "ns", n, func() {
		sw := newWriter()
		for lo := 0; lo < n; lo += probeBatch {
			sw.PartitionBatchUint64(keys[lo:min(lo+probeBatch, n)])
		}
		must(sw.Close())
	})
	p.per("shuffle.route_row_ns_per_rec", "ns", n, func() {
		sw := newWriter()
		var kb [8]byte
		var rec []byte
		for _, t := range ts {
			binary.LittleEndian.PutUint64(kb[:], t.First)
			rec = tupleCodec.Encode(rec[:0], t)
			must(sw.Write(kb[:], rec))
		}
		must(sw.Close())
		must(store.DeletePrefix(ctx, "probe.e")) // the routed chunks
	})
	sb := sketch.NewStatsBuilder()
	for _, k := range keys {
		sb.Add(q.KeyBytes(k), 1)
	}
	stats := sb.Stats()
	pm := shuffle.BaseMap("probe.edge", w.parts)
	pm.Version = 5
	pm.Splits = map[int]int{0: 2, 1: 4}
	for _, h := range stats.TopKeys(4, 0) {
		pm.Isolated = append(pm.Isolated, shuffle.Isolation{Hash: shuffle.KeyHash(h.Key), Fan: 2, Key: h.Key})
	}
	pmBytes := pm.Encode()
	p.per("shuffle.pmap_decode_us", "us", 1000, func() {
		for i := 0; i < 1000; i++ {
			_, err := shuffle.DecodePartitionMap(pmBytes)
			must(err)
		}
	})

	// ---- sketch ----
	p.per("sketch.cm_add_ns_per_key", "ns", n, func() {
		cm := sketch.NewEdgeStats().CM
		var kb [8]byte
		for _, k := range keys {
			binary.LittleEndian.PutUint64(kb[:], k)
			cm.Add(kb[:], 1)
		}
	})
	p.per("sketch.stats_merge_us", "us", 1, func() {
		must(sketch.NewEdgeStats().Merge(stats))
	})
	enc, err := stats.Encode()
	must(err)
	p.set("sketch.stats_encoded_bytes", "B", float64(len(enc)), 1)

	// ---- bag: in-proc insert and remove of whole chunks ----
	var removed int
	bagNo := 0
	p.per("bag.insert_us_per_chunk", "us", len(batches), func() {
		bagNo++
		b := store.Bag(fmt.Sprintf("probe.bag%d", bagNo))
		for _, c := range batches {
			must(b.Insert(ctx, c))
		}
	})
	for i := 1; i <= bagNo; i++ {
		must(store.Seal(ctx, fmt.Sprintf("probe.bag%d", i)))
	}
	bagNo = 0
	p.per("bag.remove_us_per_chunk", "us", len(batches), func() {
		bagNo++
		b := store.Bag(fmt.Sprintf("probe.bag%d", bagNo))
		for {
			if _, err := b.Remove(ctx); err == bag.ErrEmpty {
				break
			} else {
				must(err)
			}
			removed++
		}
		b.CloseConsumer()
	})
	if removed != reps*len(batches) {
		panic(fmt.Sprintf("probe: removed %d chunks, inserted %d", removed, reps*len(batches)))
	}
	must(store.DeletePrefix(ctx, "probe.bag"))

	// ---- transport and storage: one 32 KiB insert ----
	payload := make([]byte, probeChunk)
	insert := &transport.Request{Op: transport.OpInsert, Bag: "probe.rt", Data: payload}
	remove := &transport.Request{Op: transport.OpRemove, Bag: "probe.rt"}
	drop := &transport.Request{Op: transport.OpDelete, Bag: "probe.rt"}
	var frame []byte
	p.per("transport.frame_encode_ns", "ns", probeCalls, func() {
		for i := 0; i < probeCalls; i++ {
			frame = transport.EncodeRequest(frame[:0], insert)
		}
	})
	p.per("transport.frame_decode_ns", "ns", probeCalls, func() {
		for i := 0; i < probeCalls; i++ {
			_, err := transport.DecodeRequest(frame)
			must(err)
		}
	})
	p.per("transport.inproc_call_us", "us", probeCalls, func() {
		for i := 0; i < probeCalls; i++ {
			_, err := inproc.Call(ctx, "probe-0", insert)
			must(err)
		}
		node.Handle(drop)
	})
	p.per("storage.handle_insert_us", "us", probeCalls, func() {
		for i := 0; i < probeCalls; i++ {
			node.Handle(insert)
		}
	})
	// reps x probeCalls chunks are in the bag now; remove them all.
	p.per("storage.handle_remove_us", "us", probeCalls, func() {
		for i := 0; i < probeCalls; i++ {
			if resp := node.Handle(remove); !resp.OK() {
				panic("probe: remove: " + resp.Err)
			}
		}
	})
	node.Handle(drop)
	srv := transport.NewTCPServer(storage.NewNode("probe-tcp"))
	addr, err := srv.Listen("127.0.0.1:0")
	must(err)
	tcp := transport.NewTCPClient(map[string]string{"probe-tcp": addr})
	rtt := make([]float64, probeCalls/2)
	for i := range rtt {
		t0 := time.Now()
		_, err := tcp.Call(ctx, "probe-tcp", insert)
		must(err)
		rtt[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	tcp.Close()
	srv.Close()
	p.set("transport.tcp_rtt_us_p50", "us", quantile(rtt, 0.50), len(rtt))
	p.set("transport.tcp_rtt_us_p99", "us", quantile(rtt, 0.99), len(rtt))

	// ---- sched and ctrl ----
	leases := sched.NewLeases(false)
	leases.SetTotal(8)
	leases.Add("a", 1)
	leases.Add("b", 1)
	p.per("sched.lease_cycle_ns", "ns", 100_000, func() {
		for i := 0; i < 100_000; i++ {
			if leases.Acquire("a") {
				leases.Release("a")
			}
		}
	})
	snap, policies := probeSnapshot(stats, w.parts)
	p.per("ctrl.evaluate_arbitrate_us", "us", 200, func() {
		for i := 0; i < 200; i++ {
			var proposed []ctrl.Action
			for _, pol := range policies {
				proposed = append(proposed, pol.Evaluate(snap)...)
			}
			ctrl.Arbitrate(snap, proposed)
		}
	})

	// ---- obs hot path ----
	o := obs.New(obs.DefaultTraceCap)
	ctr := o.Counter("probe_total", "job", "probe")
	hist := o.Histogram("probe_ns", "job", "probe")
	p.per("obs.counter_add_ns", "ns", 1_000_000, func() {
		for i := 0; i < 1_000_000; i++ {
			ctr.Add(1)
		}
	})
	p.per("obs.histogram_observe_ns", "ns", 1_000_000, func() {
		for i := 0; i < 1_000_000; i++ {
			hist.Observe(int64(i))
		}
	})
	// Emits into a ring with room: a full ring drops lifecycle events
	// and pays a linear eviction scan for decision events, neither of
	// which a sub-second job reaches.
	p.per("obs.trace_emit_ns", "ns", obs.DefaultTraceCap/2, func() {
		ring := obs.New(obs.DefaultTraceCap)
		for i := 0; i < obs.DefaultTraceCap/2; i++ {
			ring.Emit(obs.EvTaskScheduled, "probe", "task", "detail")
		}
	})

	// ---- plan ----
	p.per("plan.compile_us", "us", 20, func() {
		for i := 0; i < 20; i++ {
			_, err := joinPlanOf().Compile(q.Options{Parts: w.parts})
			must(err)
		}
	})
}

func chunkBytes(cs []chunk.Chunk) int {
	var n int
	for _, c := range cs {
		n += len(c)
	}
	return n
}

// probeSnapshot is a control-plane snapshot of 8 running tasks and 4 active
// edges carrying the workload's own key statistics, with the engine's
// default policy set.
func probeSnapshot(stats *sketch.EdgeStats, parts int) (*ctrl.Snapshot, []ctrl.Policy) {
	now := time.Now()
	snap := &ctrl.Snapshot{
		Version: 1, Now: now, Job: "probe", FreeSlots: 4, TotalSlots: 8,
		Nodes: map[string]ctrl.NodeTel{},
		Tasks: map[string]*ctrl.TaskTel{},
		Edges: map[string]*ctrl.EdgeTel{},
		SampleBag: func(string) *ctrl.BagTel {
			return &ctrl.BagTel{ReadBytes: 1 << 20, RemainingBytes: 64 << 20}
		},
	}
	for i := 0; i < 4; i++ {
		node := fmt.Sprintf("compute-%d", i)
		snap.Nodes[node] = ctrl.NodeTel{LastBeat: now, Running: 1, Slots: 2}
		edge := fmt.Sprintf("probe.edge%d", i)
		es := *stats
		es.Counts = map[string]uint64{}
		for p := 0; p < parts; p++ {
			es.Counts[shuffle.PartitionBag(edge, p)] = uint64(1000 * (1 + 9*(1-min(p, 1))))
		}
		snap.Edges[edge] = &ctrl.EdgeTel{Name: edge, PMap: shuffle.BaseMap(edge, parts), Spread: true, Active: true, Stats: &es}
		for j, consumes := range []string{"", edge} {
			name := fmt.Sprintf("task-%d-%d", i, j)
			snap.Tasks[name] = &ctrl.TaskTel{Name: name, Scheduled: true, Workers: 1,
				StartedAt: now.Add(-time.Second), LastClone: now.Add(-time.Second),
				Inputs: []string{"probe.in"}, ConsumesEdge: consumes, EdgeSpread: true}
			snap.Overloads = append(snap.Overloads, ctrl.Overload{Node: node, Task: name, Inputs: []string{"probe.in"}, Busy: 0.9})
		}
	}
	return snap, hurricane.DefaultPolicies(hurricane.MasterConfig{CloneInterval: defaultCadence, SpeculativeCloning: true})
}
