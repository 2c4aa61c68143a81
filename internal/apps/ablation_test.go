package apps

import (
	"testing"
	"time"

	"repro/hurricane"
	"repro/internal/workload"
)

// TestClickLogNoCloneCorrectness: the HurricaneNC configuration (Fig. 6)
// still computes exact results — disabling cloning affects performance,
// never correctness.
func TestClickLogNoCloneCorrectness(t *testing.T) {
	ctx := testCtx(t)
	cluster := testCluster(t, func(cfg *hurricane.ClusterConfig) {
		cfg.Master.Policies = []hurricane.Policy{}
	})
	const regions, hostBits = 8, 10
	gen := workload.ClickLogGen{S: 1.0, Regions: regions, UniquePerRegion: 1 << hostBits, Seed: 21}
	ips := gen.Generate(30000)
	want := workload.DistinctPerRegion(ips, regions)

	if err := LoadClickLog(ctx, cluster.Store(), ips); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(ctx, ClickLogApp(regions, hostBits, true)); err != nil {
		t.Fatal(err)
	}
	got, err := ClickLogCounts(ctx, cluster.Store(), regions)
	if err != nil {
		t.Fatal(err)
	}
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("region %d: %d != %d", r, got[r], want[r])
		}
	}
	if c := cluster.Master().Stats().Clones; c != 0 {
		t.Errorf("HurricaneNC cloned %d times", c)
	}
}

// TestClickLogWithReplication: the full application over replicated
// storage produces exact results (every insert is mirrored; removes sync
// read pointers).
func TestClickLogWithReplication(t *testing.T) {
	ctx := testCtx(t)
	cluster := testCluster(t, func(cfg *hurricane.ClusterConfig) {
		cfg.Replication = 2
	})
	const regions, hostBits = 8, 10
	gen := workload.ClickLogGen{S: 0.8, Regions: regions, UniquePerRegion: 1 << hostBits, Seed: 33}
	ips := gen.Generate(30000)
	want := workload.DistinctPerRegion(ips, regions)

	if err := LoadClickLog(ctx, cluster.Store(), ips); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(ctx, ClickLogApp(regions, hostBits, false)); err != nil {
		t.Fatal(err)
	}
	got, err := ClickLogCounts(ctx, cluster.Store(), regions)
	if err != nil {
		t.Fatal(err)
	}
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("region %d: %d != %d", r, got[r], want[r])
		}
	}
}

// TestPageRankMoreIterations: longer multi-stage graphs (5 iterations =
// 16 sequential stages) stay oracle-exact.
func TestPageRankMoreIterations(t *testing.T) {
	ctx := testCtx(t)
	cluster := testCluster(t, nil)
	const scale, iters = 6, 5
	gen := workload.RMATGen{Scale: scale, EdgeFactor: 8, Seed: 17}
	edges := gen.Generate()
	n := gen.NumVertices()
	want := SerialPageRank(edges, n, iters)

	if err := LoadEdges(ctx, cluster.Store(), edges); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(ctx, PageRankApp(n, iters, false)); err != nil {
		t.Fatal(err)
	}
	got, err := PageRanks(ctx, cluster.Store(), n, iters)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(got, want); d > 1e-9 {
		t.Errorf("max deviation %g after %d iterations", d, iters)
	}
}

// TestClickLogDiskBackend runs ClickLog with disk-backed bags: same
// results, data on real files.
func TestClickLogDiskBackend(t *testing.T) {
	ctx := testCtx(t)
	dir := t.TempDir()
	cluster := testCluster(t, func(cfg *hurricane.ClusterConfig) {
		cfg.DiskDir = dir
	})
	const regions, hostBits = 4, 10
	gen := workload.ClickLogGen{S: 0.5, Regions: regions, UniquePerRegion: 1 << hostBits, Seed: 5}
	ips := gen.Generate(20000)
	want := workload.DistinctPerRegion(ips, regions)

	if err := LoadClickLog(ctx, cluster.Store(), ips); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(ctx, ClickLogApp(regions, hostBits, false)); err != nil {
		t.Fatal(err)
	}
	got, err := ClickLogCounts(ctx, cluster.Store(), regions)
	if err != nil {
		t.Fatal(err)
	}
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("region %d: %d != %d", r, got[r], want[r])
		}
	}
}

// TestHashJoinEmptyPartition: partitions with no matching tuples produce
// empty outputs without wedging the join.
func TestHashJoinEmptyPartition(t *testing.T) {
	ctx := testCtx(t)
	cluster := testCluster(t, nil)
	const parts = 8
	// Keys confined to a range that hashes into few partitions.
	rg := workload.RelationGen{Keys: 2, S: 0, Seed: 8}
	r := rg.Generate(100)
	s := rg.Generate(1000)
	want := workload.JoinCount(r, s)

	if err := LoadRelations(ctx, cluster.Store(), r, s); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cluster.Run(ctx, HashJoinApp(parts, false)) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("join wedged on empty partitions")
	}
	got, err := JoinResultCount(ctx, cluster.Store(), parts)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("matches %d, want %d", got, want)
	}
}
