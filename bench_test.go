// Package repro's top-level benchmarks run the paper's applications end
// to end on the embedded engine at laptop scale. The paper's tables and
// figures, which are simulated, have one entry point: cmd/hurricane-bench
// (table1 … utilization).
//
// Run all of them with:
//
//	go test -bench=. -benchmem ./...
package repro

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/hurricane"
	"repro/internal/apps"
	"repro/internal/workload"
)

func engineCluster(b *testing.B) *hurricane.Cluster {
	b.Helper()
	cluster, err := hurricane.NewCluster(hurricane.ClusterConfig{
		StorageNodes: 4,
		ComputeNodes: 4,
		SlotsPerNode: 2,
		ChunkSize:    64 << 10,
		Node: hurricane.NodeConfig{
			MonitorInterval:   5 * time.Millisecond,
			HeartbeatInterval: 2 * time.Millisecond,
		},
		Master: hurricane.MasterConfig{
			CloneInterval: 5 * time.Millisecond,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return cluster
}

// BenchmarkEngineClickLog runs the real ClickLog application end-to-end
// on the embedded engine (not the simulator).
func BenchmarkEngineClickLog(b *testing.B) {
	const regions, hostBits, records = 8, 10, 100000
	gen := workload.ClickLogGen{S: 1.0, Regions: regions, UniquePerRegion: 1 << hostBits, Seed: 42}
	ips := gen.Generate(records)
	b.SetBytes(int64(records) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster := engineCluster(b)
		ctx := context.Background()
		if err := apps.LoadClickLog(ctx, cluster.Store(), ips); err != nil {
			b.Fatal(err)
		}
		if err := cluster.Run(ctx, apps.ClickLogApp(regions, hostBits, false)); err != nil {
			b.Fatal(err)
		}
		cluster.Shutdown()
	}
}

// BenchmarkEngineHashJoin runs the real hash join end-to-end.
func BenchmarkEngineHashJoin(b *testing.B) {
	const parts = 4
	rg := workload.RelationGen{Keys: 500, S: 0, Seed: 1}
	sg := workload.RelationGen{Keys: 500, S: 1.0, Seed: 2}
	r := rg.Generate(5000)
	s := sg.Generate(50000)
	b.SetBytes(int64(len(r)+len(s)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster := engineCluster(b)
		ctx := context.Background()
		if err := apps.LoadRelations(ctx, cluster.Store(), r, s); err != nil {
			b.Fatal(err)
		}
		if err := cluster.Run(ctx, apps.HashJoinApp(parts, false)); err != nil {
			b.Fatal(err)
		}
		cluster.Shutdown()
	}
}

// BenchmarkEnginePageRank runs the real PageRank end-to-end.
func BenchmarkEnginePageRank(b *testing.B) {
	gen := workload.RMATGen{Scale: 9, EdgeFactor: 8, Seed: 7}
	edges := gen.Generate()
	n := gen.NumVertices()
	b.SetBytes(int64(len(edges)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster := engineCluster(b)
		ctx := context.Background()
		if err := apps.LoadEdges(ctx, cluster.Store(), edges); err != nil {
			b.Fatal(err)
		}
		if err := cluster.Run(ctx, apps.PageRankApp(n, 2, false)); err != nil {
			b.Fatal(err)
		}
		cluster.Shutdown()
	}
}

// BenchmarkEngineSkewedShuffle compares static hash partitioning against
// skew-aware hot-partition splitting on a Zipf(s=1.3) keyed groupby (the
// acceptance workload for the shuffle subsystem: 4 base partitions, 8
// consumer slots, one key holding ≈a third of the records). Both variants
// run one reducer per physical partition (classic static partitioning:
// the aggregate stage is NoClone, isolating the partitioning axis from
// Hurricane's cloning axis), and the aggregation pays a simulated 5µs
// per-record cost so consumer load dominates end-to-end time. The
// "static" variant pins the 4-partition hash layout, serializing the hot
// partition on one consumer; "skew-aware" lets the master re-hash hot
// partitions and spread heavy-hitter keys at runtime. Baseline numbers
// live in BENCH_shuffle.json.
func BenchmarkEngineSkewedShuffle(b *testing.B) {
	const parts = 4
	gen := workload.RelationGen{Keys: 64, S: 1.3, Seed: 9}
	tuples := gen.Generate(200000)

	run := func(b *testing.B, disableSplitting bool) {
		b.SetBytes(int64(len(tuples)) * 16)
		for i := 0; i < b.N; i++ {
			cluster, err := hurricane.NewCluster(hurricane.ClusterConfig{
				StorageNodes: 4,
				ComputeNodes: 4,
				SlotsPerNode: 2,
				ChunkSize:    4 << 10,
				Node: hurricane.NodeConfig{
					MonitorInterval:   2 * time.Millisecond,
					HeartbeatInterval: 2 * time.Millisecond,
					OverloadThreshold: 0.1,
				},
				Master: hurricane.MasterConfig{
					CloneInterval:    2 * time.Millisecond,
					DisableHeuristic: true, // let the shuffle producers clone freely (both variants)
					DisableSplitting: disableSplitting,
					SplitInterval:    2 * time.Millisecond,
					SplitFan:         4,
					SplitImbalance:   1.5, // the hot partition holds ~42%, 1.7× the 4-partition mean
					SplitMinRecords:  8192,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			if err := apps.LoadGroupBy(ctx, cluster.Store(), tuples); err != nil {
				b.Fatal(err)
			}
			app := apps.GroupByApp(parts, true, true, 0, 5000)
			if err := cluster.Run(ctx, app); err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				if !disableSplitting {
					st := cluster.Master().Stats()
					b.ReportMetric(float64(st.Splits), "splits")
					b.ReportMetric(float64(st.Isolations), "isolations")
					dumpBenchMetrics("skew_aware", cluster)
				} else {
					dumpBenchMetrics("static", cluster)
				}
			}
			cluster.Shutdown()
		}
	}
	b.Run("static", func(b *testing.B) { run(b, true) })
	b.Run("skew-aware", func(b *testing.B) { run(b, false) })
}

// BenchmarkEngineBagThroughput measures raw bag insert+remove throughput
// through the in-process transport.
func BenchmarkEngineBagThroughput(b *testing.B) {
	cluster := engineCluster(b)
	defer cluster.Shutdown()
	ctx := context.Background()
	store := cluster.Store()
	payload := make([]byte, 64<<10)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	w := store.Bag(fmt.Sprintf("bench-%d", time.Now().UnixNano()))
	for i := 0; i < b.N; i++ {
		if err := w.Insert(ctx, payload); err != nil {
			b.Fatal(err)
		}
	}
}
