package apps

import (
	"context"
	"fmt"
	"time"

	"repro/hurricane"
	"repro/internal/workload"
)

// GroupBy bag names.
const (
	GroupByIn   = "gb.in"   // source tuples (key, payload)
	GroupByShuf = "gb.shuf" // partitioned shuffle edge
	GroupByOut  = "gb.out"  // per-key partial aggregates
)

// groupByOutCodec encodes (key, (count, encoded-HLL)) partial aggregates.
var groupByOutCodec = hurricane.PairOf(hurricane.Uint64Of,
	hurricane.PairOf(hurricane.Int64Of, hurricane.BytesOf))

// GroupByApp builds a skewed keyed aggregation (the clicklog-sessionization
// shape) on the skew-aware shuffle: a shuffle task routes tuples by key
// onto a partitioned bag, and per-partition aggregate workers count
// records and estimate distinct payloads per key. All per-key results are
// *mergeable partials* (counts add, HLL registers max), so the engine is
// free to spread a heavy-hitter key's records across several consumers
// (BagSpec.Spread) — the paper's §2.3 requirement that concurrent workers'
// partial results support merging, applied to partitions instead of
// clones.
// noClone disables cloning of the aggregate stage only: that is the
// classic static-partitioning configuration (one reducer per partition),
// the baseline skew-aware splitting is measured against.
//
// recordCostNS simulates per-record aggregation cost: the worker sleeps
// the accumulated cost in coarse batches. This models aggregations
// dominated by per-record latency (external lookups, remote state,
// parsing pipelines) and makes end-to-end wall clock scale with how
// evenly records spread across consumer slots — exactly what partitioning
// controls — rather than with the host's core count. 0 disables it; the
// skewed-shuffle benchmark uses it so consumer load dominates runtime.
func GroupByApp(parts int, spread, noClone bool, recordCostNS int) *hurricane.App {
	return GroupByAppCosts(parts, spread, noClone, 0, recordCostNS)
}

// GroupByAppCosts is GroupByApp with separate simulated per-record costs
// for the shuffle (producer) and aggregate (consumer) stages. A non-zero
// shuffle cost makes the producers CPU-bound, so they trip overload
// detection and clone — which is what the multi-job co-run benchmark
// needs from its badly behaved neighbor.
func GroupByAppCosts(parts int, spread, noClone bool, shuffleCostNS, recordCostNS int) *hurricane.App {
	app := hurricane.NewApp("groupby")
	app.SourceBag(GroupByIn)
	app.AddBag(hurricane.BagSpec{Name: GroupByShuf, Partitions: parts, Spread: spread})
	app.Bag(GroupByOut)

	app.AddTask(hurricane.TaskSpec{
		Name:    "shuffle",
		Inputs:  []string{GroupByIn},
		Outputs: []string{GroupByShuf},
		Run: func(tc *hurricane.TaskCtx) error {
			pw := hurricane.NewPartitionedWriter(tc, 0, tupleCodec,
				hurricane.Uint64Key(func(t joinPair) uint64 { return t.First }))
			var owedNS int64
			return hurricane.ForEach(tc, 0, tupleCodec, func(t joinPair) error {
				if shuffleCostNS > 0 {
					owedNS += int64(shuffleCostNS)
					if owedNS >= 500_000 {
						time.Sleep(time.Duration(owedNS))
						owedNS = 0
					}
				}
				return pw.Write(t)
			})
		},
	})

	app.AddTask(hurricane.TaskSpec{
		Name:    "aggregate",
		Inputs:  []string{GroupByShuf},
		Outputs: []string{GroupByOut},
		NoClone: noClone,
		Run: func(tc *hurricane.TaskCtx) error {
			type agg struct {
				n   int64
				hll *hurricane.HLL
			}
			groups := make(map[uint64]*agg)
			var pbuf [8]byte
			var owedNS int64
			if err := hurricane.ForEach(tc, 0, tupleCodec, func(t joinPair) error {
				a := groups[t.First]
				if a == nil {
					a = &agg{hll: hurricane.NewHLL(10)}
					groups[t.First] = a
				}
				a.n++
				for i := 0; i < 8; i++ {
					pbuf[i] = byte(t.Second >> (8 * i))
				}
				a.hll.Add(pbuf[:])
				if recordCostNS > 0 {
					// Pay the simulated per-record cost in ≥0.5ms batches
					// (fine-grained sleeps undershoot on coarse timers).
					owedNS += int64(recordCostNS)
					if owedNS >= 500_000 {
						time.Sleep(time.Duration(owedNS))
						owedNS = 0
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if owedNS > 0 {
				time.Sleep(time.Duration(owedNS))
			}
			w := hurricane.NewWriter(tc, 0, groupByOutCodec)
			for k, a := range groups {
				rec := hurricane.Pair[uint64, hurricane.Pair[int64, []byte]]{
					First:  k,
					Second: hurricane.Pair[int64, []byte]{First: a.n, Second: a.hll.Encode()},
				}
				if err := w.Write(rec); err != nil {
					return err
				}
			}
			return nil
		},
	})
	return app
}

// LoadGroupBy loads and seals the groupby source relation.
func LoadGroupBy(ctx context.Context, store *hurricane.Store, tuples []workload.Tuple) error {
	return LoadGroupByInto(ctx, store, GroupByIn, tuples)
}

// LoadGroupByInto loads and seals the groupby source relation under an
// explicit (e.g. job-namespaced) bag name.
func LoadGroupByInto(ctx context.Context, store *hurricane.Store, bagName string, tuples []workload.Tuple) error {
	pairs := make([]joinPair, len(tuples))
	for i, t := range tuples {
		pairs[i] = joinPair{First: t.Key, Second: t.Payload}
	}
	if err := hurricane.Load(ctx, store, bagName, tupleCodec, pairs); err != nil {
		return err
	}
	return hurricane.Seal(ctx, store, bagName)
}

// GroupByResult is the final aggregate for one key.
type GroupByResult struct {
	Count    int64
	Distinct float64 // HLL estimate of distinct payloads
}

// CollectGroupBy reads the per-worker partial aggregates and merges them
// into final per-key results: counts add exactly, HLL partials merge
// register-wise. This is where records of a spread heavy-hitter key (or a
// key whose partition was re-hash split mid-stream) reconverge.
func CollectGroupBy(ctx context.Context, store *hurricane.Store) (map[uint64]GroupByResult, error) {
	return CollectGroupByFrom(ctx, store, GroupByOut)
}

// CollectGroupByFrom reads and merges the partial aggregates from an
// explicit (e.g. job-namespaced) output bag name.
func CollectGroupByFrom(ctx context.Context, store *hurricane.Store, bagName string) (map[uint64]GroupByResult, error) {
	recs, err := hurricane.Collect(ctx, store, bagName, groupByOutCodec)
	if err != nil {
		return nil, err
	}
	counts := make(map[uint64]int64)
	hlls := make(map[uint64]*hurricane.HLL)
	for _, r := range recs {
		counts[r.First] += r.Second.First
		h, err := hurricane.DecodeHLL(r.Second.Second)
		if err != nil {
			return nil, fmt.Errorf("apps: groupby partial for key %d: %w", r.First, err)
		}
		if prev := hlls[r.First]; prev == nil {
			hlls[r.First] = h
		} else if err := prev.Merge(h); err != nil {
			return nil, err
		}
	}
	out := make(map[uint64]GroupByResult, len(counts))
	for k, n := range counts {
		out[k] = GroupByResult{Count: n, Distinct: hlls[k].Estimate()}
	}
	return out, nil
}
