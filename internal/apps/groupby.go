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
// records and estimate distinct payloads per key. Both stages move a
// column batch at a time. All per-key results are *mergeable partials*
// (counts add, HLL registers max), so the engine is free to spread a
// heavy-hitter key's records across several consumers (BagSpec.Spread) —
// the paper's §2.3 requirement that concurrent workers' partial results
// support merging, applied to partitions instead of clones. It is the
// hand-wired oracle GroupByPlan is checked against.
// noClone disables cloning of the aggregate stage only: that is the
// classic static-partitioning configuration (one reducer per partition),
// the baseline skew-aware splitting is measured against.
//
// shuffleCostNS and recordCostNS simulate a per-record cost in the
// shuffle (producer) and aggregate (consumer) stage: the worker sleeps
// the accumulated cost in coarse batches. A consumer cost models
// aggregations dominated by per-record latency (external lookups, remote
// state, parsing pipelines) and makes end-to-end wall clock scale with
// how evenly records spread across consumer slots — exactly what
// partitioning controls — rather than with the host's core count. A
// producer cost makes the producers trip overload detection and clone,
// which is what the multi-job co-run benchmark needs from its badly
// behaved neighbor. 0 disables either.
func GroupByApp(parts int, spread, noClone bool, shuffleCostNS, recordCostNS int) *hurricane.App {
	app := hurricane.NewApp("groupby")
	app.SourceBag(GroupByIn)
	app.AddBag(hurricane.BagSpec{Name: GroupByShuf, Partitions: parts, Spread: spread})
	app.Bag(GroupByOut)

	app.AddTask(hurricane.TaskSpec{
		Name:    "shuffle",
		Inputs:  []string{GroupByIn},
		Outputs: []string{GroupByShuf},
		Run: func(tc *hurricane.TaskCtx) error {
			pw := hurricane.NewPartitionedWriterUint64(tc, 0, tupleCodec,
				func(t joinPair) uint64 { return t.First })
			cost := simulatedCost{perRecordNS: shuffleCostNS}
			err := hurricane.ForEachBatch(tc, 0, tupleCodec, func(ts []joinPair) error {
				cost.pay(len(ts))
				return pw.WriteBatch(ts)
			})
			cost.settle()
			return err
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
			cost := simulatedCost{perRecordNS: recordCostNS}
			// Last-key memo: on a skewed stream consecutive records repeat
			// keys often (the repeat probability is the distribution's
			// collision probability, concentrated further by partitioning),
			// so remembering the previous record's accumulator skips the
			// map lookup for those runs.
			var lastKey uint64
			var lastAgg *agg
			if err := hurricane.ForEachBatch(tc, 0, tupleCodec, func(ts []joinPair) error {
				for i := range ts {
					t := &ts[i]
					a := lastAgg
					if a == nil || t.First != lastKey {
						if a = groups[t.First]; a == nil {
							a = &agg{hll: hurricane.NewHLL(10)}
							groups[t.First] = a
						}
						lastKey, lastAgg = t.First, a
					}
					a.n++
					a.hll.AddUint64(t.Second)
				}
				cost.pay(len(ts))
				return nil
			}); err != nil {
				return err
			}
			cost.settle()
			w := hurricane.NewWriter(tc, 0, groupByOutCodec)
			for k, a := range groups {
				err := w.Write(hurricane.Pair[uint64, hurricane.Pair[int64, []byte]]{
					First:  k,
					Second: hurricane.Pair[int64, []byte]{First: a.n, Second: a.hll.Encode()},
				})
				if err != nil {
					return err
				}
			}
			return nil
		},
	})
	return app
}

// simulatedCost pays a per-record cost by sleeping: in batches of at least
// 0.5ms, because fine-grained sleeps undershoot on coarse timers.
type simulatedCost struct {
	perRecordNS int
	owedNS      int64
}

func (c *simulatedCost) pay(records int) {
	c.owedNS += int64(c.perRecordNS) * int64(records)
	if c.owedNS >= 500_000 {
		c.settle()
	}
}

func (c *simulatedCost) settle() {
	if c.owedNS > 0 {
		time.Sleep(time.Duration(c.owedNS))
		c.owedNS = 0
	}
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
