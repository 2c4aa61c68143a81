package apps

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/hurricane"
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
			MonitorInterval:   5 * time.Millisecond,
			HeartbeatInterval: 2 * time.Millisecond,
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

			if err := LoadClickLog(ctx, cluster.Store(), ips); err != nil {
				t.Fatal(err)
			}
			app := ClickLogApp(regions, hostBits, false)
			if err := cluster.Run(ctx, app); err != nil {
				t.Fatal(err)
			}
			got, err := ClickLogCounts(ctx, cluster.Store(), regions)
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
	cluster := testCluster(t, func(cfg *hurricane.ClusterConfig) {
		cfg.Master.CloneInterval = time.Millisecond
		cfg.Node.MonitorInterval = time.Millisecond
		cfg.Node.HeartbeatInterval = time.Millisecond
		cfg.Node.OverloadThreshold = 0.01 // everything looks overloaded
	})
	const regions, hostBits = 4, 10
	gen := workload.ClickLogGen{S: 1.0, Regions: regions, UniquePerRegion: 1 << hostBits, Seed: 7}
	ips := gen.Generate(300000)
	want := workload.DistinctPerRegion(ips, regions)

	if err := LoadClickLog(ctx, cluster.Store(), ips); err != nil {
		t.Fatal(err)
	}
	app := ClickLogApp(regions, hostBits, false)
	if err := cluster.Run(ctx, app); err != nil {
		t.Fatal(err)
	}
	got, err := ClickLogCounts(ctx, cluster.Store(), regions)
	if err != nil {
		t.Fatal(err)
	}
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("region %d: distinct = %d, want %d", r, got[r], want[r])
		}
	}
	stats := cluster.Master().Stats()
	if stats.Clones == 0 {
		t.Error("expected at least one clone under forced overload")
	}
	if stats.MergeTasks == 0 && stats.RenameAdopts == 0 {
		t.Error("expected merges or rename adoptions")
	}
	t.Logf("master stats: %+v", stats)
}

func TestHashJoinCorrectness(t *testing.T) {
	for _, s := range []float64{0, 1.0} {
		s := s
		t.Run(skewName(s), func(t *testing.T) {
			ctx := testCtx(t)
			cluster := testCluster(t, nil)
			const parts = 4

			rg := workload.RelationGen{Keys: 100, S: 0, Seed: 1}
			sg := workload.RelationGen{Keys: 100, S: s, Seed: 2}
			r := rg.Generate(500)
			probe := sg.Generate(5000)
			want := workload.JoinCount(r, probe)

			if err := LoadRelations(ctx, cluster.Store(), r, probe); err != nil {
				t.Fatal(err)
			}
			app := HashJoinApp(parts, false)
			if err := cluster.Run(ctx, app); err != nil {
				t.Fatal(err)
			}
			got, err := JoinResultCount(ctx, cluster.Store(), parts)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("join output = %d matches, want %d", got, want)
			}
		})
	}
}

func TestHashJoinWithForcedCloning(t *testing.T) {
	ctx := testCtx(t)
	cluster := testCluster(t, func(cfg *hurricane.ClusterConfig) {
		cfg.Node.OverloadThreshold = 0.01
	})
	const parts = 2
	rg := workload.RelationGen{Keys: 50, S: 0, Seed: 3}
	sg := workload.RelationGen{Keys: 50, S: 1.0, Seed: 4}
	r := rg.Generate(300)
	probe := sg.Generate(8000)
	want := workload.JoinCount(r, probe)

	if err := LoadRelations(ctx, cluster.Store(), r, probe); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(ctx, HashJoinApp(parts, false)); err != nil {
		t.Fatal(err)
	}
	got, err := JoinResultCount(ctx, cluster.Store(), parts)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("join output = %d matches, want %d", got, want)
	}
	t.Logf("master stats: %+v", cluster.Master().Stats())
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
	cluster := testCluster(t, func(cfg *hurricane.ClusterConfig) {
		cfg.Node.OverloadThreshold = 0.01
	})
	const scale, iters = 6, 2
	gen := workload.RMATGen{Scale: scale, EdgeFactor: 8, Seed: 13}
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
		t.Errorf("max rank deviation %g from serial oracle", d)
	}
	t.Logf("master stats: %+v", cluster.Master().Stats())
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
