package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/hurricane"
	"repro/hurricane/q"
	"repro/internal/apps"
	"repro/internal/workload"
)

// newCluster starts the grid's cluster — 4 storage nodes, 4 compute nodes
// x 2 slots, chunkKiB KiB chunks — tuned so mitigation engages within a
// sub-second job. edit, if not nil, adjusts the config for one arm.
func newCluster(chunkKiB int, edit func(*hurricane.ClusterConfig)) (*hurricane.Cluster, error) {
	cfg := hurricane.ClusterConfig{
		StorageNodes: 4, ComputeNodes: 4, SlotsPerNode: 2, ChunkSize: chunkKiB << 10,
		Node:   hurricane.NodeConfig{MonitorInterval: 4 * time.Millisecond, OverloadThreshold: 0.1},
		Master: hurricane.MasterConfig{CloneInterval: 2 * time.Millisecond},
	}
	if edit != nil {
		edit(&cfg)
	}
	return hurricane.NewCluster(cfg)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// groupByCounts reads groupby output bags as one key → count table each.
func groupByCounts(ctx context.Context, store *hurricane.Store, bags ...string) (counts, error) {
	var out counts
	for _, b := range bags {
		got, err := apps.CollectGroupBy(ctx, store, b)
		if err != nil {
			return nil, err
		}
		table := make(map[uint64]int64, len(got))
		for k, r := range got {
			table[k] = r.Count
		}
		out = append(out, table)
	}
	return out, nil
}

// policyCell ablates the master's cloning — the default policy, no policy —
// on a Zipf(1.3) groupby over 64 keys (one ≈ a third of the records) whose
// aggregation is cloneable: a Spread edge, partials merged at collect.
func policyCell() cell {
	const records, parts, recordCost = 200000, 4, 5000
	tuples := workload.ZipfTuples(records, 64, 1.3, 9)
	return cell{
		about: fmt.Sprintf("Zipf(1.3) groupby, %d records at %d ns each, %d partitions; timed: the job", records, recordCost, parts),
		arms:  []string{"clone", "none"},
		want:  counts{workload.KeyCounts(tuples)},
		run: func(ctx context.Context, arm string) (result, error) {
			c, err := newCluster(4, func(cfg *hurricane.ClusterConfig) {
				if arm == "none" {
					cfg.Master.Policies = []hurricane.Policy{}
				}
			})
			if err != nil {
				return result{}, err
			}
			defer c.Shutdown()
			if err := apps.LoadGroupBy(ctx, c.Store(), apps.GroupByIn, tuples); err != nil {
				return result{}, err
			}
			start := time.Now()
			if err := c.Run(ctx, apps.GroupByApp(parts, true, 0, recordCost)); err != nil {
				return result{}, err
			}
			r := result{ms: msSince(start), st: c.Master().Stats()}
			r.out, err = groupByCounts(ctx, c.Store(), apps.GroupByOut)
			return r, err
		},
	}
}

// schedCell times a near-uniform groupby from its submission into a
// cluster a Zipf(1.3) one has filled with clones of its CPU-bound shuffle
// stage, with fair-share leasing on and off. Counters are the skewed job's.
func schedCell() cell {
	const skewRecords, uniRecords, parts = 200000, 60000, 4
	const recordCost, skewProduce = 5000, 15000 // ns per record: aggregate, the skewed job's shuffle
	skewTuples := workload.ZipfTuples(skewRecords, 64, 1.3, 9)
	uniTuples := workload.ZipfTuples(uniRecords, 64, 0.01, 11)
	return cell{
		about: fmt.Sprintf("a %d-record uniform groupby beside a clone-hungry %d-record Zipf(1.3) one; timed: the uniform job", uniRecords, skewRecords),
		arms:  []string{"fair-share", "unarbitrated"},
		own:   "yields",
		want:  counts{workload.KeyCounts(skewTuples), workload.KeyCounts(uniTuples)},
		run: func(ctx context.Context, arm string) (result, error) {
			c, err := newCluster(4, func(cfg *hurricane.ClusterConfig) {
				cfg.Sched.DisableFairShare = arm == "unarbitrated"
			})
			if err != nil {
				return result{}, err
			}
			defer c.Shutdown()
			store := c.Store()
			skew, err := c.SubmitJob(ctx, apps.GroupByApp(parts, true, skewProduce, recordCost), hurricane.JobConfig{Name: "skew"})
			if err == nil {
				err = apps.LoadGroupBy(ctx, store, skew.Bag(apps.GroupByIn), skewTuples)
			}
			if err != nil {
				return result{}, err
			}
			for deadline := time.Now().Add(time.Second); c.FreeSlots() > 0 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			uni, err := c.SubmitJob(ctx, apps.GroupByApp(parts, true, 0, recordCost), hurricane.JobConfig{Name: "uni"})
			start := time.Now()
			if err == nil {
				err = apps.LoadGroupBy(ctx, store, uni.Bag(apps.GroupByIn), uniTuples)
			}
			if err == nil {
				err = uni.Wait(ctx)
			}
			r := result{ms: msSince(start)}
			if err == nil {
				err = skew.Wait(ctx)
			}
			if err != nil {
				return result{}, err
			}
			r.st = skew.Stats().Master
			r.own = r.st.Yields
			r.out, err = groupByCounts(ctx, store, skew.Bag(apps.GroupByOut), uni.Bag(apps.GroupByOut))
			return r, err
		},
	}
}

// streamCell runs a drifting Zipf(1.3) click stream (the hot region moves
// every two windows) one window job at a time, each window's partition
// map seeded from the one before (warm) or from plain hashing (cold).
func streamCell() cell {
	const windows, perWindow, parts, recordCost = 16, 20000, 4, 4000
	gen := workload.ClickLogGen{S: 1.3, Regions: 64, UniquePerRegion: 1 << 12, Seed: 33, DriftEvery: 2 * perWindow}
	var want counts
	for _, clicks := range apps.ClickStreamWindows(gen, windows, perWindow) {
		want = append(want, workload.KeyCounts(clicks))
	}
	return cell{
		about: fmt.Sprintf("%d windows of %d drifting Zipf(1.3) clicks at %d ns each; timed: the median window", windows, perWindow, recordCost),
		arms:  []string{"warm", "cold"},
		own:   "seeded",
		want:  want,
		run: func(ctx context.Context, arm string) (result, error) {
			c, err := newCluster(8, func(cfg *hurricane.ClusterConfig) {
				cfg.Node.OverloadThreshold = 0 // the default
				cfg.Master = hurricane.MasterConfig{CloneInterval: 5 * time.Millisecond}
			})
			if err != nil {
				return result{}, err
			}
			defer c.Shutdown()
			origin := int64(1_000_000_000_000)
			h, err := hurricane.RunStream(ctx, c, hurricane.StreamSpec{
				Name: "bench",
				App:  apps.GroupByApp(parts, true, 0, recordCost),
				Sources: map[string]hurricane.StreamSource{apps.GroupByIn: hurricane.StreamSourceOf(apps.TupleCodec, (&apps.ClickStreamSource{
					Gen: gen, Origin: origin, PerWindow: perWindow, Total: windows * perWindow, Batch: perWindow,
				}).Poll)},
				Window:      time.Second,
				Origin:      origin,
				MaxInFlight: 1, // one window at a time: each latency is its own
				ColdStart:   arm == "cold",
			})
			if err != nil {
				return result{}, err
			}
			var r result
			var latencies []float64
			for w := 0; w < windows; w++ {
				res, err := h.Next(ctx)
				if err == nil {
					err = res.Err
				}
				var got counts
				if err == nil {
					got, err = groupByCounts(ctx, c.Store(), res.Bag(apps.GroupByOut))
				}
				if err != nil {
					return result{}, fmt.Errorf("window %d: %w", w, err)
				}
				r.out = append(r.out, got...)
				latencies = append(latencies, float64(res.DoneAt.Sub(res.SubmittedAt))/1e6)
				if res.Seeded {
					r.own++
				}
				if j := res.Job(); j != nil {
					r.st.Clones += j.Stats().Master.Clones
				}
			}
			slices.Sort(latencies)
			r.ms = latencies[len(latencies)/2]
			return r, h.Drain(ctx)
		},
	}
}

// planCell compiles R (each key once) join S (Zipf(1.3), top key ≈ 26 %)
// into the planner's fused join, whose probe clones split chunk by chunk,
// or into a static hash repartition whose edge consumers never clone;
// producers clone in both. A repeat must match the serial join's per-key
// match counts and per-key wrapping sums of both payloads, so a probe that
// finds the wrong build row fails it.
func planCell() cell {
	const keys, probeN, parts, recordCost = 16384, 200000, 4, 5000 // recordCost: ns per match
	type tuple = hurricane.Pair[uint64, uint64]
	type match = hurricane.Pair[uint64, tuple]
	dim := workload.SeqRelation(keys, 41)
	probes := workload.ZipfTuples(probeN, keys, 1.3, 43)
	compile := func(naive bool) (*q.Compiled, error) {
		p := q.New("planbench")
		key := func(t tuple) uint64 { return t.First }
		joined := q.Join(q.Scan(p, apps.JoinBagR, apps.TupleCodec), q.Scan(p, apps.JoinBagS, apps.TupleCodec), key, key, apps.MatchCodec,
			func(b, pr tuple, emit func(match) error) error {
				return emit(match{First: pr.First, Second: tuple{First: b.Second, Second: pr.Second}})
			})
		q.MapPerWorker(joined, apps.MatchCodec, func() func(match) match {
			var owedNS int64
			return func(m match) match {
				if owedNS += recordCost; owedNS >= 500_000 {
					time.Sleep(time.Duration(owedNS))
					owedNS = 0
				}
				return m
			}
		}).Sink("matches")
		return p.Compile(q.Options{Parts: parts, Static: naive})
	}
	return cell{
		about: fmt.Sprintf("R(%d keys) join S(%d Zipf(1.3) probes) at %d ns per match; timed: the query", keys, probeN, recordCost),
		arms:  []string{"planner", "naive"},
		want:  matchTables(workload.JoinMatches(dim, probes)),
		run: func(ctx context.Context, arm string) (result, error) {
			naive := arm == "naive"
			c, err := newCluster(8, nil)
			if err != nil {
				return result{}, err
			}
			defer c.Shutdown()
			plan, err := compile(naive)
			if err != nil {
				return result{}, err
			}
			want := q.JoinBroadcast
			if naive {
				want = q.JoinRepartition
			}
			if got := plan.Joins[0].Strategy; got != want {
				return result{}, fmt.Errorf("planner chose %v, want %v:\n%s", got, want, plan.Explain())
			}
			var r result
			if err := apps.LoadRelations(ctx, c.Store(), apps.JoinBagR, apps.JoinBagS, dim, probes); err != nil {
				return result{}, err
			}
			start := time.Now()
			if err := plan.Run(ctx, c); err != nil {
				return result{}, err
			}
			r.ms, r.st = msSince(start), c.Master().Stats()
			got, err := hurricane.Collect(ctx, c.Store(), plan.SinkBag("matches"), apps.MatchCodec)
			ms := make([]workload.Match, len(got))
			for i, m := range got {
				ms[i] = workload.Match{Key: m.First, R: m.Second.First, S: m.Second.Second}
			}
			r.out = matchTables(ms)
			return r, err
		},
	}
}

// matchTables returns a join's per-key match counts and per-key wrapping
// sums of both payloads.
func matchTables(ms []workload.Match) counts {
	n, sum := make(map[uint64]int64), make(map[uint64]int64)
	for _, m := range ms {
		n[m.Key]++
		sum[m.Key] += int64(m.R + m.S)
	}
	return counts{n, sum}
}
