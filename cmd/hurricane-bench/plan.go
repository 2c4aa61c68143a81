package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/hurricane"
	"repro/hurricane/q"
	"repro/internal/apps"
	"repro/internal/workload"
)

// planBench measures what statistics-driven physical planning buys a
// skewed join. One logical query — R ⋈ S on the tuple key, with a
// simulated per-match consumer cost — runs twice on identical data:
//
//   - naive: the static physical plan (Options.Static) — plain hash
//     repartition of the probe side, one reducer per partition, no
//     Spread, no seeds, and splitting/isolation disabled (producers may
//     still clone, in both variants). This is the classic
//     static-partitioning join.
//   - planner: auto compilation with warm statistics (the probe
//     relation's key sketch, as a previous run would have recorded).
//     The planner picks the SharesSkew-style skewed join: heavy probe
//     keys are pre-isolated onto spread fragment consumers before the
//     first record is routed, the long tail takes the partitioned path,
//     and the runtime control plane keeps refining from the live
//     count-min sketch.
//
// The probe relation is Zipf(s=1.3) — its top key alone carries ≈ 26%
// of the records, which under static hash partitioning serializes on a
// single reducer. Reported: median of 3 end-to-end runs per variant;
// every run verifies the match count and per-key match counts against
// ground truth, so the comparison never trades correctness for speed.
func planBench() error {
	const (
		keys       = 16384  // join-key domain; R holds each key exactly once
		probeN     = 200000 // probe records, Zipf(1.3)
		parts      = 4
		fan        = 4
		recordCost = 5000 // ns per match on the join consumer side
		iters      = 3
	)

	// R: a dimension relation with every key exactly once, so each probe
	// record produces exactly one match and consumer cost is exactly
	// per-probe-record. Warm statistics: the probe key distribution as a
	// finished run's merged edge sketch would have recorded it.
	r := workload.SeqRelation(keys, 41)
	s := workload.ZipfTuples(probeN, keys, 1.3, 43)
	wantMatches := workload.JoinCount(r, s)
	wantPerKey := workload.KeyCounts(s)
	warm := apps.JoinWarmStats(r, s)

	type match = hurricane.Pair[uint64, hurricane.Pair[uint64, uint64]]

	// One logical query; the per-match cost rides a per-worker map fused
	// into the join consumer stage, so wall clock tracks how evenly
	// matches spread across consumer slots.
	buildPlan := func() *q.Plan {
		p := q.New("planbench")
		build := q.Scan(p, apps.JoinBagR, apps.TupleCodec)
		probe := q.Scan(p, apps.JoinBagS, apps.TupleCodec)
		joined := q.Join(build, probe,
			func(t benchTuple) uint64 { return t.First },
			func(t benchTuple) uint64 { return t.First },
			apps.MatchCodec,
			func(b, pr benchTuple, emit func(match) error) error {
				return emit(match{First: pr.First,
					Second: hurricane.Pair[uint64, uint64]{First: b.Second, Second: pr.Second}})
			},
		)
		q.MapPerWorker(joined, apps.MatchCodec, func() func(match) match {
			var owedNS int64
			return func(m match) match {
				owedNS += recordCost
				if owedNS >= 500_000 {
					time.Sleep(time.Duration(owedNS))
					owedNS = 0
				}
				return m
			}
		}).Sink("matches")
		return p
	}

	type variant struct {
		ElapsedMS  int64 `json:"elapsed_ms"`
		Splits     int   `json:"runtime_splits"`
		Isolations int   `json:"runtime_isolations"`
		Clones     int   `json:"clones"`
		SeededIso  int   `json:"seeded_isolations"`
		benchObs
	}

	runOnce := func(naive bool) (variant, error) {
		var out variant
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()

		// Producers clone freely in BOTH variants (the convention of
		// BenchmarkEngineSkewedShuffle): the comparison isolates the
		// consumer-side join strategy, not generic cloning. The naive
		// variant additionally disables splitting/isolation — its static
		// hash layout is pinned, like a planner with no skew awareness.
		mcfg := hurricane.MasterConfig{
			CloneInterval:    2 * time.Millisecond,
			DisableHeuristic: true,
			DisableSplitting: naive,
			SplitInterval:    2 * time.Millisecond,
			SplitImbalance:   1.5,
			SplitMinRecords:  8192,
			SplitFan:         fan,
		}
		cluster, err := hurricane.NewCluster(hurricane.ClusterConfig{
			StorageNodes: 4,
			ComputeNodes: 4,
			SlotsPerNode: 2,
			ChunkSize:    8 << 10,
			Master:       mcfg,
			Node: hurricane.NodeConfig{
				MonitorInterval:   2 * time.Millisecond,
				HeartbeatInterval: 2 * time.Millisecond,
				OverloadThreshold: 0.1,
			},
		})
		if err != nil {
			return out, err
		}
		defer cluster.Shutdown()

		opts := q.Options{
			Parts: parts, Fan: fan,
			// Isolate keys carrying ≥ 30% of a mean partition's load: on
			// this Zipf(1.3) domain that pre-isolates the top two keys
			// (~26% and ~10% of the stream) instead of only the first.
			IsolateFraction: 0.3,
		}
		if naive {
			opts.Static = true
		} else {
			opts.Stats = warm
		}
		c, err := buildPlan().Compile(opts)
		if err != nil {
			return out, err
		}
		wantStrategy := q.JoinSkewed
		if naive {
			wantStrategy = q.JoinRepartition
		}
		if got := c.Joins[0].Strategy; got != wantStrategy {
			return out, fmt.Errorf("planner chose %v, want %v:\n%s", got, wantStrategy, c.Explain())
		}
		for _, seed := range c.Seeds {
			out.SeededIso += len(seed.Isolated)
		}

		store := cluster.Store()
		if err := apps.LoadRelations(ctx, store, r, s); err != nil {
			return out, err
		}
		start := time.Now()
		if err := c.Run(ctx, cluster); err != nil {
			return out, err
		}
		out.ElapsedMS = time.Since(start).Milliseconds()

		got, err := hurricane.Collect(ctx, store, c.SinkBag("matches"), apps.MatchCodec)
		if err != nil {
			return out, err
		}
		if int64(len(got)) != wantMatches {
			return out, fmt.Errorf("produced %d matches, want %d", len(got), wantMatches)
		}
		perKey := make(map[uint64]int64)
		for _, m := range got {
			perKey[m.First]++
		}
		for k, n := range wantPerKey {
			if perKey[k] != n {
				return out, fmt.Errorf("key %d: %d matches, want %d", k, perKey[k], n)
			}
		}
		st := cluster.Master().Stats()
		out.Splits, out.Isolations, out.Clones = st.Splits, st.Isolations, st.Clones
		out.benchObs = captureObs(cluster, cluster.Job(c.App.Name()), false)
		return out, nil
	}

	median := func(naive bool) (variant, error) {
		return runTimed(iters,
			func() (variant, error) { return runOnce(naive) },
			func(v variant) float64 { return float64(v.ElapsedMS) })
	}

	fmt.Printf("plan: R(%d keys) join S(%d Zipf(1.3) records), naive repartition vs planner-chosen skewed join\n",
		keys, probeN)
	planner, err := median(false)
	if err != nil {
		return fmt.Errorf("planner run: %w", err)
	}
	fmt.Printf("  planner (skewed): %5dms  (seeded isolations %d, runtime splits %d, isolations %d, clones %d)\n",
		planner.ElapsedMS, planner.SeededIso, planner.Splits, planner.Isolations, planner.Clones)
	naive, err := median(true)
	if err != nil {
		return fmt.Errorf("naive run: %w", err)
	}
	fmt.Printf("  naive (repartition): %2dms  (static: no spread, no seeds, splitting/isolation off)\n", naive.ElapsedMS)
	speedup := float64(naive.ElapsedMS) / float64(planner.ElapsedMS)
	fmt.Printf("  planner-chosen skewed join: %.2fx faster end-to-end\n", speedup)

	doc := map[string]any{
		"benchmark": "plan",
		"description": fmt.Sprintf(
			"Statistics-driven physical join planning on one embedded cluster (4 compute nodes x 2 slots): R (dimension, %d keys, one tuple each) joins S (%d probe records, Zipf s=1.3 — the top key alone is ~26%% of the stream), with %dns of simulated consumer cost per match. The naive variant compiles the same logical query with Options.Static (plain hash repartition, one reducer per partition, splitting/isolation disabled; producers clone freely in BOTH variants, so the comparison isolates the consumer-side join strategy). The planner variant compiles with warm statistics (the probe key sketch a previous run would have recorded): it picks the SharesSkew-style skewed join, pre-isolating heavy keys onto %d spread fragment consumers each, with runtime split/isolate policies still active. Median of %d runs; every run verifies total and per-key match counts against ground truth.",
			keys, probeN, recordCost, fan, iters),
		"environment": map[string]string{
			"go":   runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
			"date": time.Now().Format("2006-01-02"),
		},
		"command":                    "hurricane-bench plan",
		"results":                    map[string]any{"planner_skewed": planner, "naive_repartition": naive},
		"speedup_planner_over_naive": speedup,
		"notes":                      "Under static hash partitioning the dominant Zipf key pins ~26% of all matches (plus its partition's share of the tail) on one reducer, so the join runs at that reducer's speed. The planner's seed map isolates the heavy keys into record-level-spread fragment bags before the first record is routed — legal because join emissions are record-parallel — and the long tail keeps the ordinary partitioned path; residual imbalance is handled by the runtime SplitPartition/IsolateKey policies reading the live count-min sketch. The same plan object with the same statistics runs unmodified under Cluster.Run, SubmitJob, RunStream, and hurricane-run.",
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_plan.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("  wrote BENCH_plan.json")
	return nil
}

// benchTuple mirrors workload.Tuple on the wire.
type benchTuple = hurricane.Pair[uint64, uint64]
