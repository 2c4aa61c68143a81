// Command hurricane-bench regenerates the paper's evaluation tables and
// figures from the cluster simulator and baseline models, and can drive
// the real embedded engine for a verified end-to-end run.
//
// Usage:
//
//	hurricane-bench [experiment ...]
//
// With no arguments it runs every simulator experiment. Experiments:
// table1 table2 table3 table4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
// storage-scaling utilization.
//
// "engine-clicklog" additionally runs the skewed ClickLog application on
// the real embedded engine (not the simulator), verifies every region
// count against ground truth, and prints the master's mitigation stats —
// the quick live-cluster sanity check that used to live in a separate
// debug harness.
//
// "sched" runs the multi-job scheduler co-run benchmark on the real
// engine — a skewed and a uniform groupby sharing one cluster, with and
// without fair-share slot leasing — and writes BENCH_sched.json.
//
// "stream" runs the continuous-ingestion benchmark on the real engine — a
// drifting Zipf click-log source cut into event-time windows, with
// warm-started versus cold-started partition maps — and writes
// BENCH_stream.json.
//
// "plan" runs the query-planner benchmark on the real engine — one
// logical join compiled naively (static hash repartition) versus with
// statistics-driven physical planning (skewed join with pre-isolated
// heavy-hitter keys) on Zipf(1.3) probe keys — and writes
// BENCH_plan.json.
package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workload"
)

var all = []string{
	"table1", "table2", "table3", "table4",
	"fig5", "fig6", "fig78", "fig9", "fig10", "fig11", "fig12",
	"storage-scaling", "utilization",
}

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		args = all
	}
	for _, a := range args {
		if err := run(a); err != nil {
			fmt.Fprintf(os.Stderr, "hurricane-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func run(name string) error {
	switch name {
	case "table1":
		fmt.Print(experiments.FormatTable1(experiments.Table1()))
	case "table2":
		fmt.Print(experiments.FormatTable2(experiments.Table2()))
	case "table3":
		fmt.Print(experiments.FormatTable3(experiments.Table3()))
	case "table4":
		fmt.Print(experiments.FormatTable4(experiments.Table4()))
	case "fig5":
		fmt.Print(experiments.FormatFigure5(experiments.Figure5()))
	case "fig6":
		fmt.Print(experiments.FormatFigure6(experiments.Figure6()))
	case "fig7", "fig8", "fig78":
		fmt.Print(experiments.FormatFigures78(experiments.Figures78()))
	case "fig9":
		fmt.Print(experiments.FormatTimeline(
			"Figure 9: ClickLog throughput over time (320GB, s=1, 32 machines)",
			experiments.Figure9()))
	case "fig10":
		fmt.Print(experiments.FormatFigure10(experiments.Figure10()))
	case "fig11":
		fmt.Print(experiments.FormatTimeline(
			"Figure 11: throughput with compute-node and master crashes (320GB, 32 machines)",
			experiments.Figure11()))
	case "fig12":
		fmt.Print(experiments.FormatFigure12(experiments.Figure12()))
	case "storage-scaling":
		fmt.Print(experiments.FormatScaling(experiments.StorageScaling()))
	case "utilization":
		fmt.Print(experiments.FormatUtilization(experiments.BatchUtilization(32), 32))
	default:
		if bench := engineBenches[name]; bench != nil {
			return bench()
		}
		return fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(validExperiments(), " "))
	}
	return nil
}

// engineBenches dispatches the real-engine benchmarks (everything that is
// not a simulator experiment). One map feeds both dispatch and the
// valid-name listing, so the two cannot drift.
var engineBenches = map[string]func() error{
	"engine-clicklog": engineClickLog,
	"sched":           schedBench,
	"stream":          streamBench,
	"plan":            planBench,
}

// validExperiments lists every runnable experiment name for error
// messages and usage output (fig7/fig8 are accepted aliases of fig78).
func validExperiments() []string {
	out := append(append([]string{}, all...), "fig7", "fig8")
	for name := range engineBenches {
		out = append(out, name)
	}
	sort.Strings(out[len(all)+2:])
	return out
}

// engineClickLog runs the skewed ClickLog job on the real embedded engine
// and verifies the distinct-per-region counts against ground truth.
func engineClickLog() error {
	const regions, hostBits, records = 16, 12, 50000
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	cluster, err := core.NewCluster(core.ClusterConfig{
		StorageNodes: 4, ComputeNodes: 4, SlotsPerNode: 2,
		ChunkSize: 32 << 10,
		Master:    core.MasterConfig{CloneInterval: 50 * time.Millisecond},
		Node: core.NodeConfig{
			MonitorInterval:   25 * time.Millisecond,
			OverloadThreshold: 0.5,
		},
	})
	if err != nil {
		return err
	}
	defer cluster.Shutdown()

	gen := workload.ClickLogGen{S: 1.0, Regions: regions, UniquePerRegion: 1 << hostBits, Seed: 42}
	ips := gen.Generate(records)
	want := workload.DistinctPerRegion(ips, regions)
	if err := apps.LoadClickLog(ctx, cluster.Store(), ips); err != nil {
		return err
	}
	start := time.Now()
	if err := cluster.Run(ctx, apps.ClickLogApp(regions, hostBits, false)); err != nil {
		return err
	}
	elapsed := time.Since(start)
	got, err := apps.ClickLogCounts(ctx, cluster.Store(), regions)
	if err != nil {
		return err
	}
	bad := 0
	for r := range want {
		if got[r] != want[r] {
			bad++
			fmt.Printf("engine-clicklog: region %d: got %d want %d\n", r, got[r], want[r])
		}
	}
	fmt.Printf("engine-clicklog: %d records, %d regions, %v, stats %+v\n",
		records, regions, elapsed.Round(time.Millisecond), cluster.Master().Stats())
	if bad > 0 {
		return fmt.Errorf("engine-clicklog: %d/%d regions wrong", bad, regions)
	}
	fmt.Println("engine-clicklog: all region counts verified")
	return nil
}
