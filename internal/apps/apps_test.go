package apps

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/hurricane"
	"repro/hurricane/q"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/workload"
)

func testCluster(t *testing.T, mutate func(*hurricane.ClusterConfig)) *hurricane.Cluster {
	t.Helper()
	cfg := hurricane.ClusterConfig{
		StorageNodes: 4,
		ComputeNodes: 4,
		SlotsPerNode: 2,
		ChunkSize:    2 << 10,
		Node: hurricane.NodeConfig{
			MonitorInterval: 4 * time.Millisecond,
		},
		Master: hurricane.MasterConfig{
			CloneInterval: 5 * time.Millisecond,
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := hurricane.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

// clonesForced makes ctrl.ForceClones the cluster's only policy.
func clonesForced(cfg *hurricane.ClusterConfig) {
	cfg.Master.Policies = []hurricane.Policy{&ctrl.ForceClones{}}
}

// requireClones fails t unless the master cloned, and with merge also ran
// a merge task: a test about clones passes only where they happened. Each
// caller also holds a task that can clone until its first clone starts
// (core.HoldForClone), so the clone it asks for lands however fast the
// host drains the input.
func requireClones(t *testing.T, s hurricane.MasterStats, merge bool) {
	t.Helper()
	if s.Clones < 1 || merge && s.MergeTasks < 1 {
		t.Errorf("forced clones did not fire (merge wanted: %v): %+v", merge, s)
	}
}

// rawBag is a raw job's bag naming: every bag keeps its declared name.
func rawBag(name string) string { return name }

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestClickLogCorrectness(t *testing.T) {
	for _, s := range []float64{0, 0.5, 1.0} {
		s := s
		t.Run(skewName(s), func(t *testing.T) {
			ctx := testCtx(t)
			cluster := testCluster(t, nil)
			const regions, hostBits = 8, 10

			gen := workload.ClickLogGen{S: s, Regions: regions, UniquePerRegion: 1 << hostBits, Seed: 42}
			ips := gen.Generate(20000)
			want := workload.DistinctPerRegion(ips, regions)

			if err := LoadClickLog(ctx, cluster.Store(), ClickLogBagIn, ips); err != nil {
				t.Fatal(err)
			}
			app := ClickLogApp(regions, hostBits, false)
			if err := cluster.Run(ctx, app); err != nil {
				t.Fatal(err)
			}
			got, err := ClickLogCounts(ctx, cluster.Store(), rawBag, regions)
			if err != nil {
				t.Fatal(err)
			}
			for r := range want {
				if got[r] != want[r] {
					t.Errorf("region %d (%s): distinct = %d, want %d",
						r, workload.RegionName(r), got[r], want[r])
				}
			}
		})
	}
}

func TestClickLogWithForcedCloning(t *testing.T) {
	ctx := testCtx(t)
	cluster := testCluster(t, clonesForced)
	const regions, hostBits = 4, 10
	gen := workload.ClickLogGen{S: 1.0, Regions: regions, UniquePerRegion: 1 << hostBits, Seed: 7}
	ips := gen.Generate(300000)
	want := workload.DistinctPerRegion(ips, regions)

	if err := LoadClickLog(ctx, cluster.Store(), ClickLogBagIn, ips); err != nil {
		t.Fatal(err)
	}
	app := ClickLogApp(regions, hostBits, false)
	core.HoldForClone(app.Task("phase2." + workload.RegionName(0))) // it has a merge procedure
	if err := cluster.Run(ctx, app); err != nil {
		t.Fatal(err)
	}
	got, err := ClickLogCounts(ctx, cluster.Store(), rawBag, regions)
	if err != nil {
		t.Fatal(err)
	}
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("region %d: distinct = %d, want %d", r, got[r], want[r])
		}
	}
	requireClones(t, cluster.Master().Stats(), true)
}

// TestHashJoinCorrectness: both forms of the join give the serial matches
// on uniform and skewed probe keys.
func TestHashJoinCorrectness(t *testing.T) {
	for _, s := range []float64{0, 1.0} {
		t.Run(skewName(s), func(t *testing.T) {
			rg := workload.RelationGen{Keys: 100, S: 0, Seed: 1}
			sg := workload.RelationGen{Keys: 100, S: s, Seed: 2}
			r := rg.Generate(500)
			probe := sg.Generate(5000)
			for _, static := range []bool{false, true} {
				t.Run(joinForm(static), func(t *testing.T) {
					c := compileJoin(t, q.Options{Parts: 4, Static: static})
					runJoin(testCtx(t), t, testCluster(t, nil), c, r, probe)
				})
			}
		})
	}
}

// TestHashJoinWithForcedCloning: under forced clones both forms give the
// serial matches on Zipf(1.3) probe keys. The planner's form is one stage
// with no shuffle edge, so its parallelism comes only from clones splitting
// the probe chunk by chunk. Static shuffles the probe: the scatter clones,
// and the join stage, one worker per partition, never does.
func TestHashJoinWithForcedCloning(t *testing.T) {
	rGen := workload.RelationGen{Keys: 256, S: 0, Seed: 23}
	r := rGen.Generate(1000)
	s := workload.ZipfTuples(60000, 256, 1.3, 29)
	for _, static := range []bool{false, true} {
		t.Run(joinForm(static), func(t *testing.T) {
			c := compileJoin(t, q.Options{Parts: 4, Static: static})
			if !static && (c.Joins[0].Edge != "" || len(c.Stages) != 1 || c.Stages[0].WritesEdge || c.Stages[0].ConsumesEdge) {
				t.Fatalf("unpinned join did not compile to one stage with no shuffle:\n%s", c.Explain())
			}
			for _, st := range c.Stages {
				if st.Head == "scan" && !st.NoClone {
					core.HoldForClone(c.App.Task(st.Task))
				}
			}
			cluster := testCluster(t, clonesForced)
			runJoin(testCtx(t), t, cluster, c, r, s)
			requireClones(t, cluster.Master().Stats(), false)
			if p := cluster.Master().Profile(); static && (len(p.Edges) != 1 || p.Edges[0].Edge != c.Joins[0].Edge || p.Edges[0].Clones != 0) {
				t.Fatalf("the Static join stage was cloned: %+v", p.Edges)
			}
		})
	}
}

func TestPageRankCorrectness(t *testing.T) {
	ctx := testCtx(t)
	cluster := testCluster(t, nil)
	const scale, iters = 7, 3

	gen := workload.RMATGen{Scale: scale, EdgeFactor: 8, Seed: 11}
	edges := gen.Generate()
	n := gen.NumVertices()
	want := SerialPageRank(edges, n, iters)

	if err := LoadEdges(ctx, cluster.Store(), edges); err != nil {
		t.Fatal(err)
	}
	app := PageRankApp(n, iters, false)
	if err := cluster.Run(ctx, app); err != nil {
		t.Fatal(err)
	}
	got, err := PageRanks(ctx, cluster.Store(), n, iters)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(got, want); d > 1e-9 {
		t.Errorf("max rank deviation %g from serial oracle", d)
	}
	var sum float64
	for _, r := range got {
		sum += r
	}
	// With damping, total mass stays ≤ 1 (dangling vertices leak mass).
	if sum <= 0 || sum > 1.0001 {
		t.Errorf("total rank mass %g out of range", sum)
	}
}

func TestPageRankWithForcedCloning(t *testing.T) {
	ctx := testCtx(t)
	cluster := testCluster(t, clonesForced)
	const scale, iters = 10, 2
	gen := workload.RMATGen{Scale: scale, EdgeFactor: 8, Seed: 13}
	edges := gen.Generate()
	n := gen.NumVertices()
	want := SerialPageRank(edges, n, iters)

	if err := LoadEdges(ctx, cluster.Store(), edges); err != nil {
		t.Fatal(err)
	}
	app := PageRankApp(n, iters, false)
	core.HoldForClone(app.Task("gather.1")) // it has a merge procedure
	if err := cluster.Run(ctx, app); err != nil {
		t.Fatal(err)
	}
	got, err := PageRanks(ctx, cluster.Store(), n, iters)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(got, want); d > 1e-9 {
		t.Errorf("max rank deviation %g from serial oracle", d)
	}
	requireClones(t, cluster.Master().Stats(), true)
}

func skewName(s float64) string {
	switch s {
	case 0:
		return "uniform"
	case 0.2:
		return "s0.2"
	case 0.5:
		return "s0.5"
	case 0.8:
		return "s0.8"
	default:
		return fmt.Sprintf("s%.1f", s)
	}
}
