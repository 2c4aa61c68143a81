package hurricane_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/hurricane"
	"repro/hurricane/q"
	"repro/internal/apps"
	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/shuffle"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/workload"
)

// layoutTap watches every insert into a data bag — a bag whose name has no
// '!': work and control bags ("!ready", "!done", "!pmap", ...) hold records
// that their own decoders read, never a chunk.Decoder — and keeps the
// names of those that received a chunk that is not a batch.
type layoutTap struct {
	mu     sync.Mutex
	chunks int
	rows   []string
}

func (l *layoutTap) tap(_ string, req *transport.Request, _ *transport.Response) {
	if strings.Contains(req.Bag, "!") {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.chunks++
	if !chunk.IsBatch(req.Data) {
		l.rows = append(l.rows, req.Bag)
	}
}

func (l *layoutTap) seen() (chunks int, rows []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.chunks, l.rows
}

// TestEngineWritesOnlyBatches: the engine has one chunk layout. Every
// chunk that reaches a data bag over the transport is a batch, whoever
// wrote it: a stream's pump through its typed source, the planner's
// groupby and its join in both forms, each hurricane writer (Writer over a
// codec with no view of its own among them) and shuffle.Writer.Write. Each
// of these must insert some chunk, and their results still hold.
func TestEngineWritesOnlyBatches(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	inproc := transport.NewInProc()
	inproc.Register("s0", storage.NewNode("s0"))
	f := transport.NewFaulty(inproc)
	tap := &layoutTap{}
	f.Add(transport.Rule{Match: transport.Match{Op: transport.OpInsert}, Tap: tap.tap})
	store, err := bag.NewStore(bag.Config{Nodes: []string{"s0"}, Client: f, ChunkSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	cluster := core.NewClusterOverStore(store, core.ClusterConfig{
		ComputeNodes: 2, SlotsPerNode: 2,
		Node:   core.NodeConfig{MonitorInterval: 4 * time.Millisecond},
		Master: core.MasterConfig{CloneInterval: 5 * time.Millisecond},
	})
	defer cluster.Shutdown()

	gen := workload.RelationGen{Keys: 256, S: 1.3, Seed: 41}
	tuples := gen.Generate(6000)
	pairs := make([]tuple, len(tuples))
	for i, tu := range tuples {
		pairs[i] = tuple{First: tu.Key, Second: tu.Payload}
	}
	key := func(v tuple) uint64 { return v.First }

	// loadAndWait loads each source bag of a submitted job under the
	// job's name for it, seals it and waits for the job.
	loadAndWait := func(h *hurricane.JobHandle, sources map[string][]tuple) error {
		for b, vals := range sources {
			if err := hurricane.Load(ctx, store, h.Bag(b), tupleCodec, vals); err != nil {
				return err
			}
			if err := hurricane.Seal(ctx, store, h.Bag(b)); err != nil {
				return err
			}
		}
		return h.Wait(ctx)
	}
	join := func(static bool) func() error {
		return func() error {
			c, err := apps.HashJoinPlan().Compile(q.Options{Parts: 2, Static: static})
			if err != nil {
				return err
			}
			if want := map[bool]q.JoinStrategy{false: q.JoinBroadcast, true: q.JoinRepartition}[static]; c.Joins[0].Strategy != want {
				return fmt.Errorf("planner chose %v, want %v", c.Joins[0].Strategy, want)
			}
			h, err := c.Submit(ctx, cluster, hurricane.JobConfig{Name: fmt.Sprintf("tapjoin%t", static)})
			if err != nil {
				return err
			}
			build := make([]tuple, 256)
			for k := range build {
				build[k] = tuple{First: uint64(k), Second: uint64(k) * 7}
			}
			if err := loadAndWait(h, map[string][]tuple{apps.JoinBagR: build, apps.JoinBagS: pairs}); err != nil {
				return err
			}
			ms, err := hurricane.Collect(ctx, store, h.Bag(c.SinkBag(apps.JoinShufOut)), apps.MatchCodec)
			if err == nil && len(ms) != len(pairs) {
				err = fmt.Errorf("%d matches, want %d", len(ms), len(pairs))
			}
			return err
		}
	}

	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"stream", func() error {
			const windows, perWindow = 2, 3000
			origin := int64(1_000_000_000_000)
			src := &clickSource{}
			want := make([]map[uint64]apps.GroupByResult, windows)
			for w := range windows {
				seg := tuples[w*perWindow : (w+1)*perWindow]
				batch := make([]hurricane.StreamRecord[tuple], len(seg))
				for i, tu := range seg {
					batch[i] = hurricane.StreamRecord[tuple]{
						Time:  origin + int64(w)*int64(time.Second) + int64(i)*int64(time.Second)/int64(perWindow+1),
						Value: tuple{First: tu.Key, Second: tu.Payload},
					}
				}
				src.batches = append(src.batches, batch)
				want[w] = apps.SerialGroupBy(seg)
			}
			h, err := hurricane.RunStream(ctx, cluster, hurricane.StreamSpec{
				Name:        "tapstream",
				App:         apps.GroupByApp(2, true, 0, 0),
				Sources:     map[string]hurricane.StreamSource{apps.GroupByIn: hurricane.StreamSourceOf(apps.TupleCodec, src.poll)},
				Window:      time.Second,
				Origin:      origin,
				MaxInFlight: 1,
			})
			if err != nil {
				return err
			}
			for w := range windows {
				res, err := h.Next(ctx)
				if err == nil {
					err = res.Err
				}
				if err != nil {
					return err
				}
				got, err := apps.CollectGroupBy(ctx, store, res.Bag(apps.GroupByOut))
				if err != nil {
					return err
				}
				if !maps.Equal(got, want[w]) {
					return fmt.Errorf("window %d differs from the serial groupby", w)
				}
			}
			return h.Drain(ctx)
		}},
		{"planner groupby", func() error {
			c, err := apps.GroupByPlan().Compile(q.Options{Parts: 2})
			if err != nil {
				return err
			}
			h, err := c.Submit(ctx, cluster, hurricane.JobConfig{Name: "tapgroupby"})
			if err != nil {
				return err
			}
			if err := loadAndWait(h, map[string][]tuple{apps.GroupByIn: pairs}); err != nil {
				return err
			}
			got, err := apps.CollectGroupBy(ctx, store, h.Bag(c.SinkBag(apps.GroupByOut)))
			if err == nil && !maps.Equal(got, apps.SerialGroupBy(tuples)) {
				err = fmt.Errorf("differs from the serial groupby")
			}
			return err
		}},
		{"planner join, broadcast", join(false)},
		{"planner join, repartition", join(true)},
		{"hurricane writers", func() error {
			app := hurricane.NewApp("tapwriters").SourceBag("in").SourceBag("batch").Bag("out")
			app.AddBag(hurricane.BagSpec{Name: "e1", Partitions: 2})
			app.AddBag(hurricane.BagSpec{Name: "e2", Partitions: 2})
			app.AddTask(hurricane.TaskSpec{
				Name: "route", Inputs: []string{"in"}, Outputs: []string{"e1", "e2", "out"},
				Run: func(tc *hurricane.TaskCtx) error {
					return hurricane.ForEachBatch(tc, 0, tupleCodec, func(vec []tuple) error {
						pw := hurricane.NewPartitionedWriter(tc, 0, tupleCodec, key)
						w := hurricane.NewWriter[tuple](tc, 2, rowOnly[tuple]{tupleCodec})
						for _, v := range vec {
							if err := pw.Write(v); err != nil {
								return err
							}
							if err := w.Write(v); err != nil {
								return err
							}
						}
						return hurricane.NewPartitionedWriter(tc, 1, tupleCodec, key).WriteBatch(vec)
					})
				},
			})
			for i, in := range []string{"e1", "e2", "batch"} {
				app.AddTask(hurricane.TaskSpec{
					Name: fmt.Sprintf("drain%d", i), Inputs: []string{in},
					Run: func(tc *hurricane.TaskCtx) error {
						return hurricane.ForEach(tc, 0, tupleCodec, func(tuple) error { return nil })
					},
				})
			}
			h, err := cluster.SubmitJob(ctx, app, hurricane.JobConfig{Name: "tapwriters"})
			if err != nil {
				return err
			}
			if err := hurricane.LoadBatch(ctx, store, h.Bag("batch"), tupleCodec, pairs); err != nil {
				return err
			}
			if err := hurricane.Seal(ctx, store, h.Bag("batch")); err != nil {
				return err
			}
			if err := loadAndWait(h, map[string][]tuple{"in": pairs}); err != nil {
				return err
			}
			out, err := hurricane.Collect(ctx, store, h.Bag("out"), hurricane.Codec[tuple](rowOnly[tuple]{tupleCodec}))
			if err == nil && len(out) != len(pairs) {
				err = fmt.Errorf("Writer wrote %d records, want %d", len(out), len(pairs))
			}
			return err
		}},
		{"shuffle.Writer.Write", func() error {
			w := shuffle.NewWriter(ctx, shuffle.WriterConfig{Store: store, Edge: "tapraw", Parts: 2, WriterID: "w0"})
			var rec []byte
			for _, v := range pairs {
				rec = tupleCodec.Encode(rec[:0], v)
				if err := w.Write(binary.LittleEndian.AppendUint64(nil, v.First), rec); err != nil {
					return err
				}
			}
			return w.Close()
		}},
	} {
		before, _ := tap.seen()
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		chunks, rows := tap.seen()
		if chunks == before {
			t.Fatalf("%s inserted no chunk into a data bag", c.name)
		}
		if len(rows) > 0 {
			t.Fatalf("%s inserted a chunk that is not a batch into %v", c.name, rows)
		}
	}
}
