package repro

import (
	"context"
	"testing"
	"time"

	"repro/hurricane"
	"repro/internal/apps"
	"repro/internal/workload"
)

// BenchmarkPolicyAblation measures the control plane's mitigation
// policies in isolation on the acceptance workload of the shuffle
// subsystem: a Zipf(s=1.3) keyed groupby (one key ≈ a third of the
// records) with a simulated 5µs/record aggregation cost, 4 base
// partitions, 8 consumer slots. The edge is Spread and the partials merge
// at collect, so the aggregation is cloneable in every arm; every run is
// checked against workload.KeyCounts. Variants select policy sets through
// MasterConfig.Policies:
//
//	all        — clone + speculative + split + isolate (the default set)
//	clone-only — reactive cloning, static hash partitioning
//	split-only — partition splitting + key isolation, no cloning
//	none       — empty policy set (no mitigation at all)
//
// BENCH_policy.json holds numbers from 2026-08-08, when every arm ran the
// aggregation uncloneable (NoClone): its clone-only arm says nothing about
// cloning. Compare ns/op:
//
//	go test -run xxx -bench BenchmarkPolicyAblation -benchtime 3x .
func BenchmarkPolicyAblation(b *testing.B) {
	const parts = 4
	gen := workload.RelationGen{Keys: 64, S: 1.3, Seed: 9}
	tuples := gen.Generate(200000)
	want := workload.KeyCounts(tuples)

	masterCfg := func() hurricane.MasterConfig {
		return hurricane.MasterConfig{
			CloneInterval:    2 * time.Millisecond,
			DisableHeuristic: true,
			SplitInterval:    2 * time.Millisecond,
			SplitFan:         4,
			SplitImbalance:   1.5,
			SplitMinRecords:  8192,
		}
	}
	variants := []struct {
		name     string
		policies func(cfg hurricane.MasterConfig) []hurricane.Policy
	}{
		{"all", func(cfg hurricane.MasterConfig) []hurricane.Policy {
			cfg.SpeculativeCloning = true
			cfg.SpeculativeAfter = 50 * time.Millisecond
			return hurricane.DefaultPolicies(cfg)
		}},
		{"clone-only", func(cfg hurricane.MasterConfig) []hurricane.Policy {
			cfg.DisableSplitting = true
			return hurricane.DefaultPolicies(cfg)
		}},
		{"split-only", func(cfg hurricane.MasterConfig) []hurricane.Policy {
			cfg.DisableCloning = true
			return hurricane.DefaultPolicies(cfg)
		}},
		{"none", func(hurricane.MasterConfig) []hurricane.Policy {
			return []hurricane.Policy{}
		}},
	}

	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(int64(len(tuples)) * 16)
			for i := 0; i < b.N; i++ {
				cfg := masterCfg()
				cfg.Policies = v.policies(cfg)
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
					Master: cfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				ctx := context.Background()
				if err := apps.LoadGroupBy(ctx, cluster.Store(), tuples); err != nil {
					b.Fatal(err)
				}
				app := apps.GroupByApp(parts, true, false, 0, 5000)
				if err := cluster.Run(ctx, app); err != nil {
					b.Fatal(err)
				}
				checkGroupBy(b, ctx, cluster.Store(), apps.GroupByOut, want)
				if i == 0 {
					st := cluster.Master().Stats()
					b.ReportMetric(float64(st.Clones), "clones")
					b.ReportMetric(float64(st.Splits), "splits")
					b.ReportMetric(float64(st.Isolations), "isolations")
					dumpBenchMetrics(v.name, cluster)
				}
				cluster.Shutdown()
			}
		})
	}
}
