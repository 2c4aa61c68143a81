package repro

import (
	"context"
	"testing"
	"time"

	"repro/hurricane"
	"repro/internal/apps"
	"repro/internal/workload"
)

// Ablation benchmarks: the design choices DESIGN.md calls out, measured
// on the real engine (not the simulator). Compare the paired variants'
// ns/op:
//
//	go test -bench=Ablation -benchtime 3x .

// ablationCluster builds a cluster tuned so that cloning can engage
// within a short benchmark run.
func ablationCluster(b *testing.B, mutate func(*hurricane.ClusterConfig)) *hurricane.Cluster {
	b.Helper()
	cfg := hurricane.ClusterConfig{
		StorageNodes: 4,
		ComputeNodes: 4,
		SlotsPerNode: 2,
		ChunkSize:    32 << 10,
		Node: hurricane.NodeConfig{
			MonitorInterval:   2 * time.Millisecond,
			HeartbeatInterval: 2 * time.Millisecond,
			OverloadThreshold: 0.5,
		},
		Master: hurricane.MasterConfig{
			CloneInterval:    2 * time.Millisecond,
			DisableHeuristic: true,
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	cluster, err := hurricane.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return cluster
}

// skewedClickLog runs a skewed ClickLog job once and returns the clone
// count.
func skewedClickLog(b *testing.B, cluster *hurricane.Cluster, ips []uint32) int {
	b.Helper()
	const regions, hostBits = 8, 10
	ctx := context.Background()
	if err := apps.LoadClickLog(ctx, cluster.Store(), ips); err != nil {
		b.Fatal(err)
	}
	if err := cluster.Run(ctx, apps.ClickLogApp(regions, hostBits, false)); err != nil {
		b.Fatal(err)
	}
	return cluster.Master().Stats().Clones
}

var ablationIPs = func() []uint32 {
	gen := workload.ClickLogGen{S: 1.0, Regions: 8, UniquePerRegion: 1 << 10, Seed: 99}
	return gen.Generate(200000)
}()

// BenchmarkAblationCloningOn measures the skewed ClickLog with cloning
// enabled (compare against BenchmarkAblationCloningOff — Fig. 6's ablation
// on the real engine).
func BenchmarkAblationCloningOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cluster := ablationCluster(b, nil)
		clones := skewedClickLog(b, cluster, ablationIPs)
		b.ReportMetric(float64(clones), "clones")
		cluster.Shutdown()
	}
}

// BenchmarkAblationCloningOff is HurricaneNC on the real engine.
func BenchmarkAblationCloningOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cluster := ablationCluster(b, func(cfg *hurricane.ClusterConfig) {
			cfg.Master.DisableCloning = true
		})
		clones := skewedClickLog(b, cluster, ablationIPs)
		b.ReportMetric(float64(clones), "clones")
		cluster.Shutdown()
	}
}

// BenchmarkAblationBatchFactor1 vs 10: the remove-side prefetch pipeline
// (Fig. 10's ablation on the real engine, with transport latency injected
// so prefetching matters).
func benchBatchFactor(b *testing.B, factor int) {
	for i := 0; i < b.N; i++ {
		cluster := ablationCluster(b, func(cfg *hurricane.ClusterConfig) {
			cfg.BatchFactor = factor
			cfg.TransportLatency = 50 * time.Microsecond
		})
		skewedClickLog(b, cluster, ablationIPs[:50000])
		cluster.Shutdown()
	}
}

func BenchmarkAblationBatchFactor1(b *testing.B)  { benchBatchFactor(b, 1) }
func BenchmarkAblationBatchFactor10(b *testing.B) { benchBatchFactor(b, 10) }

// BenchmarkAblationReplication measures the cost of 2× storage
// replication (synchronous backup writes + pointer sync) against the
// unreplicated baseline.
func benchReplication(b *testing.B, factor int) {
	for i := 0; i < b.N; i++ {
		cluster := ablationCluster(b, func(cfg *hurricane.ClusterConfig) {
			cfg.Replication = factor
		})
		skewedClickLog(b, cluster, ablationIPs[:50000])
		cluster.Shutdown()
	}
}

func BenchmarkAblationReplicationOff(b *testing.B) { benchReplication(b, 1) }
func BenchmarkAblationReplication2x(b *testing.B)  { benchReplication(b, 2) }

// BenchmarkAblationSpeculative measures speculative cloning's effect when
// reactive overload detection is blind (threshold unreachable).
func benchSpeculative(b *testing.B, on bool) {
	for i := 0; i < b.N; i++ {
		cluster := ablationCluster(b, func(cfg *hurricane.ClusterConfig) {
			cfg.Node.OverloadThreshold = 1.5
			cfg.Master.SpeculativeCloning = on
			cfg.Master.SpeculativeAfter = 5 * time.Millisecond
		})
		clones := skewedClickLog(b, cluster, ablationIPs)
		b.ReportMetric(float64(clones), "clones")
		cluster.Shutdown()
	}
}

func BenchmarkAblationSpeculativeOff(b *testing.B) { benchSpeculative(b, false) }
func BenchmarkAblationSpeculativeOn(b *testing.B)  { benchSpeculative(b, true) }
