package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/hurricane"
	"repro/internal/apps"
	"repro/internal/workload"
)

// vectorBench measures what the vectorized data plane buys the skewed
// groupby. The same logical job — Zipf(1.3) keyed aggregation with zero
// simulated per-record cost, so codec/routing/sketch work IS the
// workload — runs in two configurations on identical data and an
// identical static cluster layout (splitting, isolation, and the
// overload heuristic disabled; aggregate NoClone), so the only variable
// is the data plane:
//
//   - row: GroupByApp — record-at-a-time ForEach + PartitionedWriter.Write
//     (per-record routing, per-record sketch sampling, row chunks).
//   - batch: GroupByBatchApp — whole column batches through ForEachBatch
//     and WriteBatch (one routing pass and one bulk sketch feed per batch,
//     columnar chunks).
//
// Reported: median of 3 end-to-end runs per variant; every run verifies
// every per-key count against ground truth, so the comparison never
// trades correctness for speed. Throughput is mb_per_s over the 16-byte
// logical tuples, matching the policy-ablation benchmark's convention.
// Absolute throughput varies with the container; the batch/row ratio is
// the stable quantity (vector-check enforces it).
//
// Setting HURRICANE_BENCH_CPUPROFILE=<path> writes a CPU profile of one
// batch run (the first iteration) for the checked-in pprof summary;
// HURRICANE_BENCH_PROFILE_MODE=row profiles the row variant instead.
func vectorBench() error {
	fmt.Printf("vector: %d Zipf(1.3) tuples over %d keys, row vs batch groupby\n",
		vecRecords, vecKeys)
	row, batch, err := vectorVariants(vecIters)
	if err != nil {
		return err
	}
	speedup := batch.MBPerS / row.MBPerS
	fmt.Printf("  row:         %5dms  %6.2f MB/s\n", row.ElapsedMS, row.MBPerS)
	fmt.Printf("  batch:       %5dms  %6.2f MB/s  (%.2fx row)\n", batch.ElapsedMS, batch.MBPerS, speedup)

	doc := map[string]any{
		"benchmark": "vector",
		"description": fmt.Sprintf(
			"Vectorized data plane on the Zipf(s=1.3) keyed groupby (%d records, %d keys, top key ~34%%, %d base partitions, one compute node with one slot pinned to GOMAXPROCS(1), 256KB chunks, zero simulated record cost — codec/routing/sketch work is the workload). Static layout in all variants (splitting/isolation/heuristic disabled, aggregate NoClone), so the only variable is the data plane: 'row' is record-at-a-time ForEach + PartitionedWriter.Write on row chunks; 'batch' moves whole column batches (ForEachBatch with scratch-backed column decode + WriteBatch on the uint64-native routing path: one routing pass, bulk column-major scatter, and one bulk sketch feed per batch). Median of %d runs per variant; every run verifies every per-key count against ground truth. mb_per_s is over the 16-byte logical tuples.",
			vecRecords, vecKeys, vecParts, vecIters),
		"environment": map[string]string{
			"go":   runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
			"date": time.Now().Format("2006-01-02"),
		},
		"command": "hurricane-bench vector",
		"results": map[string]any{
			"row": row, "batch": batch,
		},
		"speedup_batch_over_row": speedup,
		"notes":                  "Absolute MB/s depends on the container; the ratios are the stable quantities and 'hurricane-bench vector-check' guards the batch/row one in CI (fresh ratio >= 0.6x the committed ratio; observed cross-run spread on a busy shared host is roughly 2.7x-3.5x, so the guard trips on real regressions, not scheduler noise). The row path pays codec framing, partition-map consultation, count-min sampling, and chunk-writer append per record; the batch path pays them per batch and ships columns, so the speedup is the per-record overhead's share of the row path's runtime.",
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_vector.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("  wrote BENCH_vector.json")
	return nil
}

// vectorCheck is the CI regression guard: it re-runs the row and batch
// variants once each and fails when the fresh batch/row throughput ratio
// drops below 0.6x the committed BENCH_vector.json ratio — loose enough
// for the ~25% cross-run spread a busy shared host shows, tight enough
// that losing any one batch-path optimization layer trips it. Ratios, not
// absolute MB/s, are compared — both variants run in the same container
// seconds apart, so host speed cancels out.
func vectorCheck() error {
	raw, err := os.ReadFile("BENCH_vector.json")
	if err != nil {
		return fmt.Errorf("vector-check: no committed baseline: %w", err)
	}
	var doc struct {
		Speedup float64 `json:"speedup_batch_over_row"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("vector-check: bad BENCH_vector.json: %w", err)
	}
	if doc.Speedup <= 0 {
		return fmt.Errorf("vector-check: committed speedup_batch_over_row missing")
	}
	row, err := runVectorVariant("row", nil)
	if err != nil {
		return err
	}
	batch, err := runVectorVariant("batch", nil)
	if err != nil {
		return err
	}
	fresh := batch.MBPerS / row.MBPerS
	fmt.Printf("vector-check: fresh batch/row speedup %.2fx, committed %.2fx\n", fresh, doc.Speedup)
	if fresh < 0.6*doc.Speedup {
		return fmt.Errorf("vector-check: batch/row speedup regressed: fresh %.2fx < 0.6 x committed %.2fx",
			fresh, doc.Speedup)
	}
	fmt.Println("vector-check: ok")
	return nil
}

const (
	vecKeys    = 64
	vecRecords = 3200000
	vecParts   = 2
	vecIters   = 5
	// vecBytesPerRecord is the logical tuple width (two uint64s), the
	// same accounting BENCH_policy.json uses for mb_per_s.
	vecBytesPerRecord = 16
)

// vectorVariant is one data-plane configuration's median run.
type vectorVariant struct {
	ElapsedMS int64   `json:"elapsed_ms"`
	MBPerS    float64 `json:"mb_per_s"`
	// BatchChunks counts batch-encoded chunks the shuffle writers
	// inserted (0 in the row variant, by construction).
	BatchChunks float64 `json:"batch_chunks"`
	benchObs
}

// vectorVariants runs the two variants in interleaved rounds
// (row, batch, row, batch, ...) and reports each variant's median over
// iters rounds. Interleaving matters on shared hosts: a noisy stretch
// degrades both variants evenly instead of poisoning one variant's
// entire median window. The oracle verifies every run; the CPU-profile
// hook (if armed) captures the first batch iteration.
func vectorVariants(iters int) (row, batch vectorVariant, err error) {
	// This is a single-core throughput benchmark: one compute slot already
	// serializes every task, so running the support goroutines (master,
	// storage, pollers) on a second P only adds cross-thread futex wakeups
	// — they were ~40% of profile samples on a two-CPU host. One P
	// schedules everything cooperatively and measures the data plane.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var hook *profileHook
	if path := os.Getenv("HURRICANE_BENCH_CPUPROFILE"); path != "" {
		hook = &profileHook{path: path}
	}
	profileMode := os.Getenv("HURRICANE_BENCH_PROFILE_MODE")
	if profileMode == "" {
		profileMode = "batch"
	}
	samples := map[string][]vectorVariant{}
	for i := 0; i < iters; i++ {
		for _, mode := range []string{"row", "batch"} {
			var p *profileHook
			if mode == profileMode {
				p = hook
			}
			v, err := runVectorVariant(mode, p)
			if err != nil {
				return row, batch, fmt.Errorf("%s run %d: %w", mode, i, err)
			}
			samples[mode] = append(samples[mode], v)
		}
	}
	median := func(vs []vectorVariant) vectorVariant {
		sort.Slice(vs, func(a, b int) bool { return vs[a].MBPerS > vs[b].MBPerS })
		return vs[len(vs)/2]
	}
	return median(samples["row"]), median(samples["batch"]), nil
}

// profileHook captures one CPU profile across the first run it sees.
type profileHook struct {
	path string
	done bool
}

func (p *profileHook) start() func() {
	if p == nil || p.done {
		return func() {}
	}
	f, err := os.Create(p.path)
	if err != nil {
		return func() {}
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return func() {}
	}
	p.done = true
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

// runVectorVariant runs one variant end-to-end on a fresh cluster and
// verifies every per-key count against ground truth.
func runVectorVariant(mode string, profile *profileHook) (vectorVariant, error) {
	var out vectorVariant
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// Single-core on purpose: one compute slot serializes every task, so
	// mb_per_s is single-core data-plane throughput (the quantity the
	// row/batch comparison is about) rather than a measure of how well a
	// 7-goroutine cluster timeslices the container's two CPUs — parallel
	// layouts on an oversubscribed host measure the scheduler, and the
	// run-to-run variance swamps the ratio.
	cluster, err := hurricane.NewCluster(hurricane.ClusterConfig{
		StorageNodes: 1,
		ComputeNodes: 1,
		SlotsPerNode: 1,
		// 256KB chunks: the in-process transport pays a goroutine handoff
		// per chunk, and on a two-CPU host those context switches compete
		// with the one worker doing the actual work. Bigger chunks cut
		// the handoff count identically for row and batch layouts.
		ChunkSize: 256 << 10,
		Master: hurricane.MasterConfig{
			DisableSplitting: true,
			DisableHeuristic: true,
		},
		// Tight control-loop intervals: the bench measures data-plane
		// throughput, so scheduling latency (heartbeats, poll gaps,
		// seal detection) should be as small a constant as possible —
		// it is identical across variants and only dilutes the ratio.
		Node: hurricane.NodeConfig{
			PollInterval:      2 * time.Millisecond,
			HeartbeatInterval: 5 * time.Millisecond,
		},
		Sched: hurricane.SchedConfig{Interval: 2 * time.Millisecond},
	})
	if err != nil {
		return out, err
	}
	defer cluster.Shutdown()

	var app *hurricane.App
	switch mode {
	case "row":
		app = apps.GroupByApp(vecParts, false, true, 0)
	case "batch":
		app = apps.GroupByBatchApp(vecParts, false, true, 0)
	default:
		return out, fmt.Errorf("unknown vector variant %q", mode)
	}
	gen := workload.RelationGen{Keys: vecKeys, S: 1.3, Seed: 47}
	tuples := gen.Generate(vecRecords)
	want := workload.KeyCounts(tuples)

	// The source layout is part of the data plane under test: the row
	// variant reads the classic row-framed source, the batch variant a
	// batch-encoded columnar one (identical logical content).
	store := cluster.Store()
	load := apps.LoadGroupBy
	if mode != "row" {
		load = apps.LoadGroupByBatch
	}
	if err := load(ctx, store, tuples); err != nil {
		return out, err
	}
	stop := profile.start()
	start := time.Now()
	runErr := cluster.Run(ctx, app)
	elapsed := time.Since(start)
	stop()
	if runErr != nil {
		return out, runErr
	}
	out.ElapsedMS = elapsed.Milliseconds()
	out.MBPerS = float64(vecRecords) * vecBytesPerRecord / elapsed.Seconds() / 1e6

	got, err := apps.CollectGroupBy(ctx, store)
	if err != nil {
		return out, err
	}
	if len(got) != len(want) {
		return out, fmt.Errorf("%s: %d keys, want %d", mode, len(got), len(want))
	}
	for k, n := range want {
		if got[k].Count != n {
			return out, fmt.Errorf("%s: key %d count %d, want %d", mode, k, got[k].Count, n)
		}
	}

	out.benchObs = captureObs(cluster, cluster.Primary(), false)
	for series, v := range out.Metrics {
		if hasMetricName(series, "hurricane_chunk_batches_total") {
			out.BatchChunks += v
		}
	}
	switch mode {
	case "row":
		if out.BatchChunks != 0 {
			return out, fmt.Errorf("row variant moved %v batch chunks", out.BatchChunks)
		}
	default:
		if out.BatchChunks == 0 {
			return out, fmt.Errorf("%s variant moved no batch chunks — fell back to rows", mode)
		}
	}
	return out, nil
}

// hasMetricName reports whether a labeled series is the given metric.
func hasMetricName(series, name string) bool {
	return series == name || (len(series) > len(name) && series[:len(name)] == name && series[len(name)] == '{')
}
