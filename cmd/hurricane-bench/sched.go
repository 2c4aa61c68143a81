package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/workload"
)

// schedBench measures what the multi-job scheduler buys a well-behaved
// job that co-runs with a skewed neighbor. Two groupby jobs share one
// embedded cluster (4 compute nodes × 2 slots):
//
//   - "skew": Zipf(s=1.3) keys, aggressive cloning and splitting — left
//     alone it clones itself across every worker slot;
//   - "uni": near-uniform keys, submitted once the skewed job has
//     saturated the cluster.
//
// The scenario runs twice — fair-share slot leasing on (default) and
// off (unarbitrated: nodes hand slots to whichever job's blueprint they
// find) — and reports the uniform job's completion time under each,
// writing BENCH_sched.json. Both runs verify every key count against an
// in-process oracle.
func schedBench() error {
	type coRun struct {
		UniMS      int64 `json:"uni_ms"`
		SkewMS     int64 `json:"skew_ms"`
		Yields     int   `json:"yields"`
		Clones     int   `json:"clones"`
		Splits     int   `json:"splits"`
		Isolations int   `json:"isolations"`
		benchObs
	}
	const (
		skewRecords = 200000
		uniRecords  = 60000
		parts       = 4
		recordCost  = 5000  // ns per record in the aggregate stage
		skewProduce = 15000 // ns per record in the skewed job's shuffle stage
	)
	skewTuples := workload.ZipfTuples(skewRecords, 64, 1.3, 9)
	uniTuples := workload.ZipfTuples(uniRecords, 64, 0.01, 11)
	wantSkew, wantUni := workload.KeyCounts(skewTuples), workload.KeyCounts(uniTuples)

	runOnce := func(fair bool) (coRun, error) {
		var out coRun
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		cluster, err := core.NewCluster(core.ClusterConfig{
			StorageNodes: 4,
			ComputeNodes: 4,
			SlotsPerNode: 2,
			ChunkSize:    4 << 10,
			Node: core.NodeConfig{
				MonitorInterval:   2 * time.Millisecond,
				HeartbeatInterval: 2 * time.Millisecond,
				OverloadThreshold: 0.1,
			},
			Master: core.MasterConfig{
				CloneInterval:    2 * time.Millisecond,
				DisableHeuristic: true,
				SplitInterval:    2 * time.Millisecond,
				SplitFan:         4,
				SplitImbalance:   1.5,
				SplitMinRecords:  8192,
			},
			Sched: sched.Config{
				Interval:         5 * time.Millisecond,
				DisableFairShare: !fair,
			},
		})
		if err != nil {
			return out, err
		}
		defer cluster.Shutdown()
		store := cluster.Store()

		// The skewed neighbor's shuffle stage is CPU-bound, so it clones
		// itself across every idle slot — precisely the behavior the
		// fair-share lease must contain once the uniform job arrives.
		newApp := func(shuffleCost int) *core.App {
			app := apps.GroupByApp(parts, true, false, shuffleCost, recordCost)
			return app
		}
		hSkew, err := cluster.SubmitJob(ctx, newApp(skewProduce), core.JobConfig{Name: "skew"})
		if err != nil {
			return out, err
		}
		if err := apps.LoadGroupByInto(ctx, store, hSkew.Bag(apps.GroupByIn), skewTuples); err != nil {
			return out, err
		}
		// Let the skewed job clone itself across the whole pool.
		deadline := time.Now().Add(time.Second)
		for cluster.FreeSlots() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}

		hUni, err := cluster.SubmitJob(ctx, newApp(0), core.JobConfig{Name: "uni"})
		if err != nil {
			return out, err
		}
		uniStart := time.Now()
		if err := apps.LoadGroupByInto(ctx, store, hUni.Bag(apps.GroupByIn), uniTuples); err != nil {
			return out, err
		}
		if err := hUni.Wait(ctx); err != nil {
			return out, fmt.Errorf("uni job: %w", err)
		}
		out.UniMS = time.Since(uniStart).Milliseconds()
		if err := hSkew.Wait(ctx); err != nil {
			return out, fmt.Errorf("skew job: %w", err)
		}
		out.SkewMS = time.Since(uniStart).Milliseconds()

		verify := func(h *core.JobHandle, want map[uint64]int64) error {
			got, err := apps.CollectGroupByFrom(ctx, store, h.Bag(apps.GroupByOut))
			if err != nil {
				return err
			}
			if len(got) != len(want) {
				return fmt.Errorf("job %s: %d keys, want %d", h.ID(), len(got), len(want))
			}
			for k, n := range want {
				if got[k].Count != n {
					return fmt.Errorf("job %s: key %d count %d, want %d", h.ID(), k, got[k].Count, n)
				}
			}
			return nil
		}
		if err := verify(hSkew, wantSkew); err != nil {
			return out, err
		}
		if err := verify(hUni, wantUni); err != nil {
			return out, err
		}
		st := hSkew.Stats().Master
		out.Yields = st.Yields
		out.Clones = st.Clones
		out.Splits = st.Splits
		out.Isolations = st.Isolations
		// Profile the skewed job: its critical path is where mitigation
		// (and fair-share preemption) shows up.
		out.benchObs = captureObs(cluster, hSkew, false)
		return out, nil
	}

	// Median of 3 iterations per variant (by the uniform job's time, the
	// measured quantity) — single co-runs are noisy at this scale.
	const iters = 3
	median := func(fairShare bool) (coRun, error) {
		return runTimed(iters,
			func() (coRun, error) { return runOnce(fairShare) },
			func(r coRun) float64 { return float64(r.UniMS) })
	}
	fmt.Println("sched: 2-job co-run (skewed groupby vs uniform groupby), fair-share leasing on/off")
	fair, err := median(true)
	if err != nil {
		return fmt.Errorf("fair-share run: %w", err)
	}
	fmt.Printf("  fair-share:   uni %4dms  skew %4dms  (yields %d, clones %d, splits %d)\n",
		fair.UniMS, fair.SkewMS, fair.Yields, fair.Clones, fair.Splits)
	unarb, err := median(false)
	if err != nil {
		return fmt.Errorf("unarbitrated run: %w", err)
	}
	fmt.Printf("  unarbitrated: uni %4dms  skew %4dms  (yields %d, clones %d, splits %d)\n",
		unarb.UniMS, unarb.SkewMS, unarb.Yields, unarb.Clones, unarb.Splits)
	improvement := float64(unarb.UniMS) / float64(fair.UniMS)
	fmt.Printf("  uniform co-runner completion: %.2fx faster under fair-share leasing\n", improvement)

	doc := map[string]any{
		"benchmark": "sched",
		"description": fmt.Sprintf(
			"Two-job co-run on one embedded cluster (4 compute nodes x 2 slots): a Zipf(s=1.3) groupby (%d records, aggressive cloning+splitting) saturates the cluster, then a near-uniform groupby (%d records) is submitted. Reported: median of 3 iterations of the uniform job's completion time with fair-share slot leasing (claim gating + cooperative clone preemption) versus unarbitrated sharing. Every run verifies all key counts of both jobs.",
			skewRecords, uniRecords),
		"environment": map[string]string{
			"go":   runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
			"date": time.Now().Format("2006-01-02"),
		},
		"command":                    "hurricane-bench sched",
		"results":                    map[string]any{"fair_share": fair, "unarbitrated": unarb},
		"uni_speedup_fair_over_none": improvement,
		"notes":                      "The skewed job's CPU-bound shuffle stage clones itself across all 8 slots before the uniform job arrives. Under fair-share leasing the scheduler gates the skewed job's further claims and preempts its clones cooperatively (yields > 0; each yielded clone finishes its current chunk, flushes, and hands the rest of the bag to the surviving workers), so the uniform job reaches its fair share within a few scheduler ticks. Unarbitrated, the uniform job waits for the neighbor's long-lived clone workers to drain naturally. The skewed job finishes later under leasing — that is the intended trade: it is the job causing the contention.",
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_sched.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("  wrote BENCH_sched.json")
	return nil
}
