package q_test

import (
	"context"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/hurricane"
	"repro/hurricane/q"
	"repro/internal/workload"
)

// TestVectorizedPlanOracle runs scan -> filter -> map -> countByKey on
// Zipf(1.3) input — a fused narrow prefix the compiler lowers to batch
// kernels (filter as a compacting selection pass, map over the vector)
// ahead of a batch-routed shuffle edge — and checks every key against
// ground truth. It then asserts the job really moved batch chunks: with
// a columnar record codec the planner's batch plane is on by default,
// and the shuffle writers count every batch they insert.
func TestVectorizedPlanOracle(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cluster, err := hurricane.NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	gen := workload.RelationGen{Keys: 64, S: 1.3, Seed: 17}
	tuples := gen.Generate(30000)
	want := make(map[uint64]int64)
	for _, tu := range tuples {
		if tu.Key%3 != 0 {
			want[tu.Key*2]++
		}
	}

	p := q.New("vec")
	src := q.Scan(p, "in", tupleCodec)
	kept := q.Filter(src, func(t tuple) bool { return t.First%3 != 0 })
	doubled := q.Map(kept, tupleCodec, func(t tuple) tuple {
		return tuple{First: t.First * 2, Second: t.Second}
	})
	q.CountByKey(doubled, func(t tuple) uint64 { return t.First }).Sink("out")
	c, err := p.Compile(q.Options{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}

	store := cluster.Store()
	loadTuples(ctx, t, store, "in", tuples)
	if err := c.Run(ctx, cluster); err != nil {
		t.Fatal(err)
	}
	got, err := q.CollectGrouped(ctx, store, c.SinkBag("out"), hurricane.Int64Of,
		func(a, b int64) int64 { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	verifyCounts(t, got, want)

	var batches float64
	for series, v := range cluster.Observer().Registry().Snapshot() {
		if strings.HasPrefix(series, "hurricane_chunk_batches_total") {
			batches += v
		}
	}
	if batches == 0 {
		t.Fatal("no batch chunks recorded — the compiled plan fell back to rows")
	}
}

// rowOnly hides a codec's columnar methods, so the planner sees a row-only
// record codec: stages write row chunks and read batch chunks by
// re-framing them.
type rowOnly[T any] struct{ hurricane.Codec[T] }

// rendezvous returns a MapPerWorker factory whose workers each wait, at
// their first record, until n of them have arrived: past it, n workers of
// the stage are running at once. met closes when they have.
func rendezvous(n int32) (meet func() func(tuple) tuple, met chan struct{}, arrived *atomic.Int32) {
	arrived, met = new(atomic.Int32), make(chan struct{})
	meet = func() func(tuple) tuple {
		first := true
		return func(v tuple) tuple {
			if first {
				first = false
				if arrived.Add(1) == n {
					close(met)
				}
				select {
				case <-met:
				case <-time.After(20 * time.Second):
				}
			}
			return v
		}
	}
	return meet, met, arrived
}

// TestConcurrentWorkersOwnTheirDecoders: one compiled plan object is shared
// by every worker of every stage, codecs included, while decode scratch
// must not be. The join stage of this plan consumes a four-way
// partitioned edge, so four workers run it at once — proven by a rendezvous
// inside the stage — each scanning the batch-encoded build side and
// draining batch chunks of the probe edge through the same codec. Run
// under -race; the output must equal the serial join, for the columnar
// codec and for a row-only view of it.
func TestConcurrentWorkersOwnTheirDecoders(t *testing.T) {
	const workers = 4
	build := make([]tuple, 256)
	for k := range build {
		build[k] = tuple{First: uint64(k), Second: uint64(k) * 1000}
	}
	gen := workload.RelationGen{Keys: len(build), S: 0.9, Seed: 23}
	var probe []tuple
	var want []string
	for _, tu := range gen.Generate(40000) {
		probe = append(probe, tuple{First: tu.Key, Second: tu.Payload})
		want = append(want, string(tupleCodec.Encode(nil, tuple{First: tu.Key, Second: build[tu.Key].Second + tu.Payload})))
	}
	sort.Strings(want)

	for name, codec := range map[string]hurricane.Codec[tuple]{
		"columnar": tupleCodec,
		"row-only": rowOnly[tuple]{tupleCodec},
	} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			cluster, err := hurricane.NewCluster(testClusterConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Shutdown()

			meet, met, arrived := rendezvous(workers)
			p := q.New("conc")
			joined := q.Join(q.Scan(p, "R", codec), q.Scan(p, "S", codec),
				func(b tuple) uint64 { return b.First },
				func(s tuple) uint64 { return s.First },
				codec,
				func(b, s tuple, emit func(tuple) error) error {
					return emit(tuple{First: s.First, Second: b.Second + s.Second})
				},
				q.WithStrategy(q.JoinRepartition))
			q.MapPerWorker(joined, codec, meet).Sink("out")
			c, err := p.Compile(q.Options{Parts: workers})
			if err != nil {
				t.Fatal(err)
			}

			store := cluster.Store()
			for bag, vals := range map[string][]tuple{"R": build, "S": probe} {
				if err := hurricane.LoadBatch(ctx, store, bag, tupleCodec, vals); err != nil {
					t.Fatal(err)
				}
				if err := hurricane.Seal(ctx, store, bag); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Run(ctx, cluster); err != nil {
				t.Fatal(err)
			}
			select {
			case <-met:
			default:
				t.Fatalf("only %d join workers ever ran at once, want %d", arrived.Load(), workers)
			}
			out, err := hurricane.Collect(ctx, store, c.SinkBag("out"), codec)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]string, len(out))
			for i, v := range out {
				got[i] = string(tupleCodec.Encode(nil, v))
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Fatalf("%d joined records, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("joined records differ from the serial join at sorted position %d", i)
				}
			}
		})
	}
}

// TestConcurrentWorkersOwnTheirEncoders is the write-side twin: the codecs
// of a compiled plan are shared by every worker, the encoders built from
// them must not be. Four join workers — running at once, by the same
// rendezvous — each scatter their output into the
// four-way edge of a CountByKey through leaf encoders of their own, and the
// count workers behind it each write the sink through one more. Run under
// -race; the counts must equal the serial ones, with the edge's records
// under the columnar codec (batch chunks) and under a row-only view of it
// (row chunks).
func TestConcurrentWorkersOwnTheirEncoders(t *testing.T) {
	const workers = 4
	build := make([]tuple, 256)
	for k := range build {
		build[k] = tuple{First: uint64(k), Second: 1}
	}
	gen := workload.RelationGen{Keys: len(build), S: 0.9, Seed: 31}
	var probe []tuple
	want := make(map[uint64]int64)
	for _, tu := range gen.Generate(40000) {
		probe = append(probe, tuple{First: tu.Key, Second: tu.Payload})
		want[tu.Key%64]++
	}

	for name, codec := range map[string]hurricane.Codec[tuple]{
		"columnar": tupleCodec,
		"row-only": rowOnly[tuple]{tupleCodec},
	} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			cluster, err := hurricane.NewCluster(testClusterConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Shutdown()

			meet, met, arrived := rendezvous(workers)
			p := q.New("concw")
			joined := q.Join(q.Scan(p, "R", codec), q.Scan(p, "S", codec),
				func(b tuple) uint64 { return b.First },
				func(s tuple) uint64 { return s.First },
				codec,
				func(b, s tuple, emit func(tuple) error) error {
					return emit(tuple{First: s.First % 64, Second: b.Second})
				},
				q.WithStrategy(q.JoinRepartition))
			q.CountByKey(q.MapPerWorker(joined, codec, meet), func(v tuple) uint64 { return v.First }).Sink("out")
			c, err := p.Compile(q.Options{Parts: workers})
			if err != nil {
				t.Fatal(err)
			}

			store := cluster.Store()
			for bag, vals := range map[string][]tuple{"R": build, "S": probe} {
				if err := hurricane.Load(ctx, store, bag, codec, vals); err != nil {
					t.Fatal(err)
				}
				if err := hurricane.Seal(ctx, store, bag); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Run(ctx, cluster); err != nil {
				t.Fatal(err)
			}
			select {
			case <-met:
			default:
				t.Fatalf("only %d join workers ever ran at once, want %d", arrived.Load(), workers)
			}
			got, err := q.CollectGrouped(ctx, store, c.SinkBag("out"), hurricane.Int64Of,
				func(a, b int64) int64 { return a + b })
			if err != nil {
				t.Fatal(err)
			}
			verifyCounts(t, got, want)
		})
	}
}
