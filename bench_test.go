// Package repro's top-level benchmark suite regenerates every table and
// figure of the paper's evaluation (§5). Each benchmark runs the
// corresponding experiment from internal/experiments and reports the
// headline quantity as a custom metric, printing the full table the first
// time it runs. The same rows are available from cmd/hurricane-bench.
//
// Run all of them with:
//
//	go test -bench=. -benchmem ./...
package repro

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/hurricane"
	"repro/internal/apps"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload"
)

var printOnce sync.Map

func printFirst(b *testing.B, key, out string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		b.Logf("\n%s", out)
	}
}

// BenchmarkTable1 regenerates Table 1: ClickLog runtime over uniform
// inputs from 320 MB to 3.2 TB on the simulated 32-machine cluster.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		printFirst(b, "table1", experiments.FormatTable1(rows))
		b.ReportMetric(rows[len(rows)-1].Runtime, "3.2TB-runtime-s")
	}
}

// BenchmarkTable2 regenerates Table 2: Hurricane vs Spark vs Hadoop on
// uniform ClickLog inputs.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2()
		printFirst(b, "table2", experiments.FormatTable2(rows))
	}
}

// BenchmarkTable3 regenerates Table 3: HashJoin, Hurricane vs Spark, two
// relation-size pairs at s=0 and s=1.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3()
		printFirst(b, "table3", experiments.FormatTable3(rows))
		for _, r := range rows {
			if r.System == "Hurricane" && r.Join == "32GB x 320GB" && r.Skew == 1 {
				b.ReportMetric(r.Runtime, "join-skewed-s")
			}
		}
	}
}

// BenchmarkTable4 regenerates Table 4: PageRank, Hurricane vs GraphX on
// R-MAT graphs of scale 24/27/30.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table4()
		printFirst(b, "table4", experiments.FormatTable4(rows))
	}
}

// BenchmarkFigure5 regenerates Figure 5: ClickLog slowdown vs skew across
// input sizes; the reported metric is the worst-case slowdown (paper:
// ≤2.4×).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := experiments.Figure5()
		printFirst(b, "fig5", experiments.FormatFigure5(cells))
		worst := 0.0
		for _, c := range cells {
			if c.Slowdown > worst {
				worst = c.Slowdown
			}
		}
		b.ReportMetric(worst, "worst-slowdown-x")
	}
}

// BenchmarkFigure6 regenerates Figure 6: the static-partitioning sweep,
// Hurricane vs HurricaneNC against the Amdahl bound.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure6()
		printFirst(b, "fig6", experiments.FormatFigure6(rows))
	}
}

// BenchmarkFigures78 regenerates Figures 7 and 8: the cloning × spreading
// ablation on 8 machines.
func BenchmarkFigures78(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Figures78()
		printFirst(b, "fig78", experiments.FormatFigures78(rows))
	}
}

// BenchmarkFigure9 regenerates Figure 9: the throughput-over-time trace
// with the cloning ramp and merge tail (320 GB, s=1).
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure9()
		printFirst(b, "fig9", experiments.FormatTimeline(
			"Figure 9: ClickLog throughput over time (320GB, s=1, 32 machines)", res))
		b.ReportMetric(float64(res.Clones), "clones")
		b.ReportMetric(res.Runtime, "runtime-s")
	}
}

// BenchmarkFigure10 regenerates Figure 10: the batch sampling factor
// sweep; the metric is the normalized runtime at b=10 (paper: ≈0.67×).
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure10()
		printFirst(b, "fig10", experiments.FormatFigure10(rows))
		for _, r := range rows {
			if r.B == 10 {
				b.ReportMetric(r.Normalized, "b10-normalized-x")
			}
		}
	}
}

// BenchmarkFigure11 regenerates Figure 11: throughput under compute-node
// and master crashes.
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure11()
		printFirst(b, "fig11", experiments.FormatTimeline(
			"Figure 11: throughput with compute-node and master crashes (320GB)", res))
		b.ReportMetric(res.Runtime, "runtime-s")
	}
}

// BenchmarkFigure12 regenerates Figure 12: the three-system skew
// comparison with Spark's OOM crash at 32 GB, s=1.
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := experiments.Figure12()
		printFirst(b, "fig12", experiments.FormatFigure12(cells))
	}
}

// BenchmarkStorageScaling regenerates §5.2's storage scaling experiment
// (330 MB/s → 10.53 GB/s read bandwidth, 31.9× at 32 machines).
func BenchmarkStorageScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.StorageScaling()
		printFirst(b, "scaling", experiments.FormatScaling(rows))
		b.ReportMetric(rows[len(rows)-1].Speedup, "speedup-32x")
	}
}

// BenchmarkBatchSamplingUtilization evaluates Eq. 1 (ρ(b,m)) at the
// paper's quoted points.
func BenchmarkBatchSamplingUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.BatchUtilization(32)
		printFirst(b, "util", experiments.FormatUtilization(rows, 32))
		b.ReportMetric(sim.Utilization(10, 32)*100, "rho-b10-pct")
	}
}

// ---- real-engine benchmarks (laptop scale, actual execution) ----

func engineCluster(b *testing.B) *hurricane.Cluster {
	b.Helper()
	cluster, err := hurricane.NewCluster(hurricane.ClusterConfig{
		StorageNodes: 4,
		ComputeNodes: 4,
		SlotsPerNode: 2,
		ChunkSize:    64 << 10,
		Node: hurricane.NodeConfig{
			PollInterval:      time.Millisecond,
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
					PollInterval:      time.Millisecond,
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
			app := apps.GroupByApp(parts, true, true, 5000)
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
