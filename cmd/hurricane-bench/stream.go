package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/hurricane"
	"repro/internal/apps"
	"repro/internal/workload"
)

// streamBench measures what cross-window skew memory buys a sustained
// streaming workload. A drifting Zipf(s=1.3) click-log source is cut into
// event-time windows, each executed as a full DAG job (geolocate → region-
// keyed partitioned shuffle → per-region aggregate with simulated
// per-record cost). The stream runs twice:
//
//   - warm (default): every window's partition map is seeded from the
//     previous window's final map and merged edge sketch, so the dominant
//     regions are pre-isolated before the first record is routed;
//   - cold (ColdStart): every window starts from the plain hash map and
//     must rediscover the same hot partitions from scratch — often too
//     late, since a window job is short.
//
// Reported per mode (median of 3 runs): median and p99 window execution
// latency (job completion minus submission) and end-to-end windows/sec.
// Every run verifies every window's per-region counts against ground
// truth, so the comparison never trades correctness for speed.
func streamBench() error {
	const (
		windows    = 16
		perWindow  = 20000
		regions    = 64
		parts      = 4
		recordCost = 4000 // ns per record in the aggregate stage
		iters      = 3
	)

	type modeResult struct {
		MedianMS     float64 `json:"median_window_ms"`
		P99MS        float64 `json:"p99_window_ms"`
		WindowsPerS  float64 `json:"windows_per_sec"`
		Seeded       int     `json:"seeded_windows"`
		Splits       int     `json:"runtime_splits"`
		Isolations   int     `json:"runtime_isolations"`
		TotalRuntime int64   `json:"total_ms"`
		benchObs
	}

	// Drifting skew: the hot region rotates by one every two windows, so
	// yesterday's map is mostly — not entirely — right for today.
	gen := workload.ClickLogGen{
		S: 1.3, Regions: regions, UniquePerRegion: 1 << 12,
		Seed: 33, DriftEvery: 2 * perWindow,
	}
	truth := apps.ClickStreamTruth(gen, windows, perWindow)

	runOnce := func(cold bool) (modeResult, error) {
		var out modeResult
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		cluster, err := hurricane.NewCluster(hurricane.ClusterConfig{
			StorageNodes: 4,
			ComputeNodes: 4,
			SlotsPerNode: 2,
			ChunkSize:    8 << 10,
			Node: hurricane.NodeConfig{
				HeartbeatInterval: 2 * time.Millisecond,
				MonitorInterval:   2 * time.Millisecond,
			},
			Sched: hurricane.SchedConfig{Interval: 5 * time.Millisecond},
		})
		if err != nil {
			return out, err
		}
		defer cluster.Shutdown()

		app := apps.ClickStreamApp(parts, true, recordCost)

		origin := int64(1_000_000_000_000)
		src := &apps.ClickStreamSource{
			Gen: gen, Origin: origin,
			PerWindow: perWindow, Total: windows * perWindow, Batch: perWindow,
		}

		h, err := hurricane.RunStream(ctx, cluster, hurricane.StreamSpec{
			Name:        "bench",
			App:         app,
			Sources:     map[string]hurricane.StreamSource{apps.ClickStreamIn: src},
			Window:      time.Second,
			Origin:      origin,
			MaxInFlight: 1, // sequential windows: clean latency attribution
			ColdStart:   cold,
			Master: &hurricane.MasterConfig{
				CloneInterval:   10 * time.Millisecond,
				SplitInterval:   5 * time.Millisecond,
				SplitImbalance:  1.5,
				SplitMinRecords: 4096,
				SplitFan:        4,
			},
		})
		if err != nil {
			return out, err
		}

		store := cluster.Store()
		var latencies []float64
		var firstSubmit, lastDone time.Time
		var lastJob *hurricane.JobHandle
		for w := 0; w < windows; w++ {
			res, err := h.Next(ctx)
			if err != nil {
				return out, fmt.Errorf("window %d: %w", w, err)
			}
			if res.Err != nil {
				return out, fmt.Errorf("window %d failed: %w", w, res.Err)
			}
			got, err := apps.CollectClickStream(ctx, store, res.Bag(apps.ClickStreamOut))
			if err != nil {
				return out, err
			}
			if len(got) != len(truth[w]) {
				return out, fmt.Errorf("window %d: %d regions, want %d", w, len(got), len(truth[w]))
			}
			for region, n := range truth[w] {
				if got[region].Count != n {
					return out, fmt.Errorf("window %d region %d: count %d, want %d",
						w, region, got[region].Count, n)
				}
			}
			latencies = append(latencies, float64(res.DoneAt.Sub(res.SubmittedAt).Microseconds())/1000)
			if firstSubmit.IsZero() {
				firstSubmit = res.SubmittedAt
			}
			lastDone = res.DoneAt
			if res.Seeded {
				out.Seeded++
			}
			out.Splits += res.Splits
			out.Isolations += res.Isolations
			if j := res.Job(); j != nil {
				lastJob = j
			}
		}
		if err := h.Drain(ctx); err != nil {
			return out, err
		}
		if _, err := h.Next(ctx); err != io.EOF {
			return out, fmt.Errorf("stream did not end cleanly: %v", err)
		}
		sort.Float64s(latencies)
		out.MedianMS = latencies[len(latencies)/2]
		// With 16 windows per run the 99th percentile is the slowest
		// window — i.e. this is an honest tail bound, not a smoothed
		// quantile (see notes in the JSON).
		out.P99MS = latencies[int(float64(len(latencies))*0.99)]
		total := lastDone.Sub(firstSubmit)
		out.WindowsPerS = float64(windows) / total.Seconds()
		out.TotalRuntime = total.Milliseconds()
		// Profile the last window's job: with warm starts its first-task
		// queue+read wait is the visible gain over a cold window.
		out.benchObs = captureObs(cluster, lastJob, true)
		return out, nil
	}

	median := func(cold bool) (modeResult, error) {
		return runTimed(iters,
			func() (modeResult, error) { return runOnce(cold) },
			func(r modeResult) float64 { return r.MedianMS })
	}

	fmt.Printf("stream: %d windows x %d drifting Zipf(1.3) clicks, warm-start vs cold-start partition maps\n",
		windows, perWindow)
	warm, err := median(false)
	if err != nil {
		return fmt.Errorf("warm-start run: %w", err)
	}
	fmt.Printf("  warm-start: median %6.1fms  p99 %6.1fms  %5.2f windows/s  (seeded %d, runtime splits %d, isolations %d)\n",
		warm.MedianMS, warm.P99MS, warm.WindowsPerS, warm.Seeded, warm.Splits, warm.Isolations)
	cold, err := median(true)
	if err != nil {
		return fmt.Errorf("cold-start run: %w", err)
	}
	fmt.Printf("  cold-start: median %6.1fms  p99 %6.1fms  %5.2f windows/s  (seeded %d, runtime splits %d, isolations %d)\n",
		cold.MedianMS, cold.P99MS, cold.WindowsPerS, cold.Seeded, cold.Splits, cold.Isolations)
	speedup := cold.MedianMS / warm.MedianMS
	fmt.Printf("  median window latency: %.2fx lower with cross-window skew memory\n", speedup)

	doc := map[string]any{
		"benchmark": "stream",
		"description": fmt.Sprintf(
			"Continuous ingestion on one embedded cluster (4 compute nodes x 2 slots): a drifting Zipf(s=1.3) click-log source (%d regions, hot region rotates every 2 windows) is cut into %d event-time windows of %d records, each executed as a DAG job (geolocate -> region-partitioned shuffle (%d base partitions, Spread) -> per-region aggregate at %dns/record). Warm-start seeds every window's partition map from the previous window's final map and merged edge sketch; cold-start rediscovers skew per window. Median of %d runs; every run verifies every window's per-region counts against ground truth.",
			regions, windows, perWindow, parts, recordCost, iters),
		"environment": map[string]string{
			"go":   runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
			"date": time.Now().Format("2006-01-02"),
		},
		"command":                       "hurricane-bench stream",
		"results":                       map[string]any{"warm_start": warm, "cold_start": cold},
		"median_speedup_warm_over_cold": speedup,
		"notes":                         "Window jobs are short, so a cold partitioner pays the full skew penalty: the dominant regions pile onto one partition and the job's own sketch-driven refinement fires late in the window or not at all (each window starts with empty sketches). Warm-started windows route the known-heavy regions into dedicated spread bags from the first record; the drift keeps the memory honest — a rotated hot region is re-learned within one window and the seed map adapts. With 16 windows per run, p99_window_ms equals the run's slowest window (a tail bound, not a smoothed quantile).",
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_stream.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("  wrote BENCH_stream.json")
	return nil
}
