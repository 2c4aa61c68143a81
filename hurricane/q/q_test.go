package q_test

import (
	"context"
	"io"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/hurricane"
	"repro/hurricane/q"
	"repro/internal/workload"
)

type tuple = hurricane.Pair[uint64, uint64]

var tupleCodec = hurricane.PairOf(hurricane.Uint64Of, hurricane.Uint64Of)

func testClusterConfig() hurricane.ClusterConfig {
	return hurricane.ClusterConfig{
		StorageNodes: 4,
		ComputeNodes: 4,
		SlotsPerNode: 2,
		ChunkSize:    4 << 10,
		Node: hurricane.NodeConfig{
			MonitorInterval: 4 * time.Millisecond,
		},
		Master: hurricane.MasterConfig{
			CloneInterval: 5 * time.Millisecond,
			SplitInterval: 5 * time.Millisecond,
		},
	}
}

func loadTuples(ctx context.Context, t *testing.T, store *hurricane.Store, bagName string, ts []workload.Tuple) {
	t.Helper()
	pairs := make([]tuple, len(ts))
	for i, w := range ts {
		pairs[i] = tuple{First: w.Key, Second: w.Payload}
	}
	if err := hurricane.Load(ctx, store, bagName, tupleCodec, pairs); err != nil {
		t.Fatal(err)
	}
	if err := hurricane.Seal(ctx, store, bagName); err != nil {
		t.Fatal(err)
	}
}

// countPlan builds scan -> filter(even keys) -> countByKey -> sink "out",
// exercising narrow fusion ahead of the shuffle edge.
func countPlan(name string) *q.Plan {
	p := q.New(name)
	src := q.Scan(p, "in", tupleCodec)
	even := q.Filter(src, func(t tuple) bool { return t.First%2 == 0 })
	q.CountByKey(even, func(t tuple) uint64 { return t.First }).Sink("out")
	return p
}

func countOracle(ts []workload.Tuple) map[uint64]int64 {
	want := make(map[uint64]int64)
	for _, t := range ts {
		if t.Key%2 == 0 {
			want[t.Key]++
		}
	}
	return want
}

func verifyCounts(t *testing.T, got map[uint64]int64, want map[uint64]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("key %d: got %d, want %d", k, got[k], n)
		}
	}
}

// TestQueryGroupByOracle runs a filtered count-by-key plan end to end on
// Zipf(1.3) input and verifies every key against ground truth; then it
// reruns the *same logical plan* warmed by the first run's skew memory
// (StatsFromMemory) and verifies the seeded run stays correct.
func TestQueryGroupByOracle(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	gen := workload.RelationGen{Keys: 64, S: 1.3, Seed: 7}
	tuples := gen.Generate(20000)
	want := countOracle(tuples)

	run := func(opts q.Options) map[string]hurricane.EdgeMemory {
		cluster, err := hurricane.NewCluster(testClusterConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Shutdown()
		c, err := countPlan("cnt").Compile(opts)
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
		return cluster.Master().EdgeMemory()
	}

	mem := run(q.Options{Parts: 4})
	if len(mem) == 0 {
		t.Fatal("first run left no edge memory")
	}

	// Repeated query: recompile with the finished run's memory and check
	// the planner pre-seeds the edge before verifying correctness again.
	warm := q.StatsFromMemory(mem, "")
	c2, err := countPlan("cnt").Compile(q.Options{Parts: 4, Stats: warm})
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.Seeds) == 0 {
		t.Fatalf("warm recompilation produced no seed maps; explain:\n%s", c2.Explain())
	}
	run(q.Options{Parts: 4, Stats: warm})
}

// TestJoinStrategiesIdenticalResults runs the same logical join in both
// physical forms on Zipf(1.3) probe keys and asserts each gives the serial
// matches (workload.JoinMatches) — the planner may only change *how* the
// join runs, never its result. Warm statistics seed no join edge. All
// submissions share one cluster through the multi-job scheduler (the
// Submit surface).
func TestJoinStrategiesIdenticalResults(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	rGen := workload.RelationGen{Keys: 64, S: 0, Seed: 3}
	sGen := workload.RelationGen{Keys: 64, S: 1.3, Seed: 5}
	r := rGen.Generate(200)
	s := sGen.Generate(20000)
	want := workload.JoinMatches(r, s)

	// Warm probe-side statistics from the generator's output — exactly
	// what a previous run's sketch would have recorded.
	sb := hurricane.NewStatsBuilder()
	for _, tup := range s {
		sb.Add(q.KeyBytes(tup.Key), 1)
	}

	cluster, err := hurricane.NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()
	store := cluster.Store()

	outCodec := hurricane.PairOf(hurricane.Uint64Of, hurricane.PairOf(hurricane.Uint64Of, hurricane.Uint64Of))
	joinPlan := func(name string) *q.Plan {
		p := q.New(name)
		build := q.Scan(p, "relR", tupleCodec)
		probe := q.Scan(p, "relS", tupleCodec)
		q.Join(build, probe,
			func(t tuple) uint64 { return t.First },
			func(t tuple) uint64 { return t.First },
			outCodec,
			func(b, pr tuple, emit func(hurricane.Pair[uint64, hurricane.Pair[uint64, uint64]]) error) error {
				return emit(hurricane.Pair[uint64, hurricane.Pair[uint64, uint64]]{
					First:  pr.First,
					Second: hurricane.Pair[uint64, uint64]{First: b.Second, Second: pr.Second},
				})
			},
		).Sink("out")
		return p
	}

	warm := q.NewStats()
	warm.Edges["relS"] = sb.Stats()
	for _, tc := range []struct {
		name string
		opts q.Options
		want q.JoinStrategy
	}{
		{"broadcast", q.Options{Parts: 4, Stats: warm}, q.JoinBroadcast},
		{"repart", q.Options{Parts: 4, Static: true}, q.JoinRepartition},
		{"static", q.Options{Parts: 2, Static: true, Stats: warm}, q.JoinRepartition},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := joinPlan("j" + tc.name).Compile(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if c.Joins[0].Strategy != tc.want || len(c.Seeds) != 0 {
				t.Fatalf("strategy %v with %d seeds, want %v and none:\n%s", c.Joins[0].Strategy, len(c.Seeds), tc.want, c.Explain())
			}
			h, err := c.Submit(ctx, cluster, hurricane.JobConfig{Name: tc.name})
			if err != nil {
				t.Fatal(err)
			}
			loadTuples(ctx, t, store, h.Bag("relR"), r)
			loadTuples(ctx, t, store, h.Bag("relS"), s)
			if err := h.Wait(ctx); err != nil {
				t.Fatalf("job failed: %v", err)
			}
			got, err := hurricane.Collect(ctx, store, h.Bag(c.SinkBag("out")), outCodec)
			if err != nil {
				t.Fatal(err)
			}
			matches := make([]workload.Match, len(got))
			for i, m := range got {
				matches[i] = workload.Match{Key: m.First, R: m.Second.First, S: m.Second.Second}
			}
			workload.SortMatches(matches)
			if !slices.Equal(matches, want) {
				t.Fatalf("%s join's %d matches differ from the %d serial ones", tc.name, len(matches), len(want))
			}
		})
	}
}

// TestTopKPipeline runs scan -> countByKey -> top3 -> sink and checks
// the exact ranking against ground truth (ties broken by key so the
// oracle is deterministic).
func TestTopKPipeline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := hurricane.NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	gen := workload.RelationGen{Keys: 32, S: 1.0, Seed: 11}
	tuples := gen.Generate(10000)
	counts := make(map[uint64]int64)
	for _, tu := range tuples {
		counts[tu.Key]++
	}
	type kc = hurricane.Pair[uint64, int64]
	less := func(a, b kc) bool {
		if a.Second != b.Second {
			return a.Second < b.Second
		}
		return a.First > b.First // lower key ranks higher on ties
	}
	var wantTop []kc
	for k, n := range counts {
		wantTop = append(wantTop, kc{First: k, Second: n})
	}
	for i := 0; i < len(wantTop); i++ {
		for j := i + 1; j < len(wantTop); j++ {
			if less(wantTop[i], wantTop[j]) {
				wantTop[i], wantTop[j] = wantTop[j], wantTop[i]
			}
		}
	}
	wantTop = wantTop[:3]

	p := q.New("topk")
	src := q.Scan(p, "in", tupleCodec)
	cnt := q.CountByKey(src, func(t tuple) uint64 { return t.First })
	q.TopK(cnt, 3, less).Sink("out")
	c, err := p.Compile(q.Options{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	store := cluster.Store()
	loadTuples(ctx, t, store, "in", tuples)
	if err := c.Run(ctx, cluster); err != nil {
		t.Fatal(err)
	}
	got, err := hurricane.Collect(ctx, store, c.SinkBag("out"), hurricane.PairOf(hurricane.Uint64Of, hurricane.Int64Of))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("top-3 returned %d records: %v", len(got), got)
	}
	for i, w := range wantTop {
		if got[i] != w {
			t.Fatalf("rank %d: got %+v, want %+v (full: %v)", i, got[i], w, got)
		}
	}
}

// TestTopKDirectlyOnScan runs TopK straight over a source bag (no
// aggregation in between) — the single-stage compile shape — and checks
// the exact ranking.
func TestTopKDirectlyOnScan(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := hurricane.NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	p := q.New("rawtop")
	src := q.Scan(p, "in", hurricane.Int64Of)
	q.TopK(src, 4, func(a, b int64) bool { return a < b }).Sink("out")
	c, err := p.Compile(q.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = int64((i * 7919) % 5000)
	}
	store := cluster.Store()
	if err := hurricane.Load(ctx, store, "in", hurricane.Int64Of, vals); err != nil {
		t.Fatal(err)
	}
	if err := hurricane.Seal(ctx, store, "in"); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(ctx, cluster); err != nil {
		t.Fatal(err)
	}
	got, err := hurricane.Collect(ctx, store, c.SinkBag("out"), hurricane.Int64Of)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{4999, 4998, 4997, 4996}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: got %d, want %d (full: %v)", i, got[i], want[i], got)
		}
	}
}

// scriptedSource feeds scripted batches of tuples as a stream source.
type scriptedSource struct {
	mu      sync.Mutex
	batches [][]hurricane.StreamRecord[tuple]
}

func (s *scriptedSource) poll(ctx context.Context) ([]hurricane.StreamRecord[tuple], error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.batches) == 0 {
		return nil, io.EOF
	}
	b := s.batches[0]
	s.batches = s.batches[1:]
	return b, nil
}

// TestPlanAsStreamWindowDAG runs the compiled plan's App unmodified as a
// RunStream window DAG: three event-time windows of Zipf tuples, each
// window's counts verified against its own ground truth — the third
// execution surface (after Run and Submit) one plan object serves.
func TestPlanAsStreamWindowDAG(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cluster, err := hurricane.NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	const windows, perWindow = 3, 4000
	gen := workload.RelationGen{Keys: 64, S: 1.3, Seed: 13}
	all := gen.Generate(windows * perWindow)

	c, err := countPlan("winq").Compile(q.Options{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}

	origin := int64(1_000_000_000_000)
	src := &scriptedSource{}
	want := make([]map[uint64]int64, windows)
	for w := 0; w < windows; w++ {
		seg := all[w*perWindow : (w+1)*perWindow]
		want[w] = countOracle(seg)
		batch := make([]hurricane.StreamRecord[tuple], len(seg))
		for i, tu := range seg {
			batch[i] = hurricane.StreamRecord[tuple]{
				Time:  origin + int64(w)*int64(time.Second) + int64(i)*int64(time.Second)/int64(perWindow+1),
				Value: tuple{First: tu.Key, Second: tu.Payload},
			}
		}
		src.batches = append(src.batches, batch)
	}

	h, err := hurricane.RunStream(ctx, cluster, hurricane.StreamSpec{
		Name:        "winq",
		App:         c.App,
		Sources:     map[string]hurricane.StreamSource{"in": hurricane.StreamSourceOf(tupleCodec, src.poll)},
		Window:      time.Second,
		Origin:      origin,
		MaxInFlight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := cluster.Store()
	for w := 0; w < windows; w++ {
		res, err := h.Next(ctx)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		if res.Err != nil {
			t.Fatalf("window %d failed: %v", w, res.Err)
		}
		got, err := q.CollectGrouped(ctx, store, res.Bag(c.SinkBag("out")), hurricane.Int64Of,
			func(a, b int64) int64 { return a + b })
		if err != nil {
			t.Fatal(err)
		}
		verifyCounts(t, got, want[w])
	}
	if err := h.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}
