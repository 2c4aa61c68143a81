package plan

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/core"
)

// The shapes of the benchmark's join_plan workload: 2^14 build keys, one
// build tuple each, Zipf(1.3) probe keys, a match that keeps both payloads.
const benchKeys = 1 << 14

type benchMatch = chunk.Pair[uint64, tuple]

var (
	benchTupleCodec chunk.Codec[tuple]      = chunk.PairCodec[uint64, uint64]{A: chunk.Uint64Codec{}, B: chunk.Uint64FixedCodec{}}
	benchMatchCodec chunk.Codec[benchMatch] = chunk.PairCodec[uint64, tuple]{A: chunk.Uint64Codec{}, B: chunk.PairCodec[uint64, uint64]{A: chunk.Uint64FixedCodec{}, B: chunk.Uint64FixedCodec{}}}
)

// benchInput returns the build side and n probe tuples.
func benchInput(n int) (build, probe []tuple) {
	rng := rand.New(rand.NewSource(47))
	cdf := make([]float64, benchKeys)
	var sum float64
	for i := range cdf {
		sum += math.Pow(float64(i+1), -1.3)
		cdf[i] = sum
	}
	probe = make([]tuple, n)
	for i := range probe {
		probe[i] = tuple{First: uint64(sort.SearchFloat64s(cdf, rng.Float64()*sum)), Second: rng.Uint64()}
	}
	build = make([]tuple, benchKeys)
	for k := range build {
		build[k] = tuple{First: uint64(k), Second: rng.Uint64()}
	}
	return build, probe
}

func benchJoinSpec() JoinSpec[tuple, tuple, benchMatch] {
	return JoinSpec[tuple, tuple, benchMatch]{
		BuildKey: tupleKey, ProbeKey: tupleKey, Codec: benchMatchCodec,
		Join: func(b, s tuple, emit func(benchMatch) error) error {
			return emit(benchMatch{First: s.First, Second: tuple{First: b.Second, Second: s.Second}})
		},
	}
}

// benchJoinPlan is scan(S) -> edge -> join(R) -> sink.
func benchJoinPlan() *Plan {
	p := New("bj")
	j := Join(p, Scan(p, "R", benchTupleCodec), Scan(p, "S", benchTupleCodec), benchJoinSpec())
	return p.Sink(j, "out")
}

// benchCountPlan is scan(S) -> edge -> count by key -> sink.
func benchCountPlan() *Plan {
	p := New("bc")
	spec := countSpec()
	spec.AccCodec = chunk.Int64Codec{}
	return p.Sink(GroupBy(p, Scan(p, "S", benchTupleCodec), spec), "out")
}

// stageCost is what one compiled stage's bodies cost in a run: wall time
// inside them, and heap allocations made in the process meanwhile.
type stageCost struct {
	ns      int64
	mallocs uint64
}

// runStages runs p on a fresh in-proc cluster with one worker slot — stage
// bodies run one at a time, so a body's cost is its own plus whatever the
// engine's background goroutines (inserters, master, node loops) did
// meanwhile, kept small by turning the telemetry sampler off and polling
// slowly — with the collector off, and returns each stage's cost under
// "scatter" (the stage writing the shuffle edge) or the stage's last
// operator ("join", "groupby").
func runStages(tb testing.TB, p *Plan, sources map[string][]tuple) map[string]*stageCost {
	tb.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cluster, err := core.NewCluster(core.ClusterConfig{
		StorageNodes: 1, ComputeNodes: 1, SlotsPerNode: 1, ChunkSize: 64 << 10, // the benchmark's
		SampleInterval: -1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	defer cluster.Shutdown()
	store := cluster.Store()
	for name, recs := range sources {
		if err := loadBag(ctx, store, name, benchTupleCodec, recs); err != nil {
			tb.Fatal(err)
		}
	}
	ph, err := Compile(p, Options{Parts: 4})
	if err != nil {
		tb.Fatal(err)
	}
	costs := make(map[string]*stageCost)
	for _, st := range ph.Stages {
		name := "scatter"
		if !st.WritesEdge {
			name = st.Ops[len(st.Ops)-1]
		}
		cost := &stageCost{}
		costs[name] = cost
		task := ph.App.Task(st.Task)
		run := task.Run
		task.Run = func(tc *core.TaskCtx) error {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			err := run(tc)
			cost.ns += time.Since(start).Nanoseconds()
			runtime.ReadMemStats(&after)
			cost.mallocs += after.Mallocs - before.Mallocs
			return err
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if err := ph.Run(ctx, cluster); err != nil {
		tb.Fatal(err)
	}
	return costs
}

// loadBag writes recs into a source bag and seals it.
func loadBag[T any](ctx context.Context, store *bag.Store, name string, codec chunk.Codec[T], recs []T) error {
	h := store.Bag(name)
	enc := chunk.NewEncoder(codec, store.ChunkSize(), func(c chunk.Chunk, _ int) error { return h.Insert(ctx, c) })
	if err := enc.AppendRows(recs, nil); err != nil {
		return err
	}
	if err := enc.Close(); err != nil {
		return err
	}
	return store.Seal(ctx, name)
}

// TestCompiledJoinAllocsPerRecord: a compiled stage allocates per chunk and
// per worker run, never per record — the mechanism behind the planner
// path's speed, as a count. Before compiled plans carried typed vectors
// every stage boxed each decoded record and the join each match: 1.0
// allocations per record in the scatter stage, 1.7 in the groupby, 3.0 in
// the join, by this same accounting.
func TestCompiledJoinAllocsPerRecord(t *testing.T) {
	const n = 1 << 17
	build, probe := benchInput(n)
	for _, tc := range []struct {
		name   string
		plan   *Plan
		stages []string
	}{
		{"join", benchJoinPlan(), []string{"scatter", "join"}},
		{"countByKey", benchCountPlan(), []string{"scatter", "groupby"}},
	} {
		costs := runStages(t, tc.plan, map[string][]tuple{"R": build, "S": probe})
		for _, stage := range tc.stages {
			per := float64(costs[stage].mallocs) / n
			t.Logf("%s plan, %s stage: %.4f allocations per probe record", tc.name, stage, per)
			if per > 0.05 {
				t.Errorf("%s plan, %s stage: %.3f allocations per probe record, want at most 0.05", tc.name, stage, per)
			}
		}
	}
}

// benchStage reports one stage's cost per probe record over b.N runs of p.
func benchStage(b *testing.B, p func() *Plan, stage string) {
	const n = 1 << 18
	build, probe := benchInput(n)
	var total stageCost
	for i := 0; i < b.N; i++ {
		c := runStages(b, p(), map[string][]tuple{"R": build, "S": probe})[stage]
		total.ns += c.ns
		total.mallocs += c.mallocs
	}
	recs := float64(b.N) * n
	b.ReportMetric(float64(total.ns)/recs, "ns/rec")
	b.ReportMetric(float64(total.mallocs)/recs, "allocs/rec")
}

func BenchmarkStageScanScatter(b *testing.B) { benchStage(b, benchJoinPlan, "scatter") }
func BenchmarkStageJoin(b *testing.B)        { benchStage(b, benchJoinPlan, "join") }
func BenchmarkStageGroupBy(b *testing.B)     { benchStage(b, benchCountPlan, "groupby") }

// BenchmarkJoinTableBuild builds the join stage's table from the decoded
// build side, as every join worker does once.
func BenchmarkJoinTableBuild(b *testing.B) {
	build, _ := benchInput(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := newJoinTable(build, tupleKey); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	recs := float64(b.N) * benchKeys
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/recs, "ns/rec")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/recs, "allocs/rec")
}
