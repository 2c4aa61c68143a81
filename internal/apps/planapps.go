package apps

import (
	"repro/hurricane"
	"repro/hurricane/q"
	"repro/internal/workload"
)

// The query-planner reimplementations of the hand-wired workloads. The
// hand-wired apps (GroupByApp, HashJoinApp) stay as the oracles: tests
// run both forms on identical input and assert identical results,
// so the planner is continuously verified against the low-level wiring
// it replaces. New scenarios should start here, not at the stage API —
// see the README's query-planner section.

// gbAgg is the groupby accumulator: a record count and an HLL
// distinct-payload estimator.
type gbAgg struct {
	N   int64
	HLL *hurricane.HLL
}

// gbAggCodec encodes a *gbAgg accumulator byte-compatibly with the
// hand-wired groupby's (count, encoded-HLL) pair, so the plan's sink bag
// is readable by the same CollectGroupByFrom oracle collector.
type gbAggCodec struct{}

func (gbAggCodec) Encode(buf []byte, v *gbAgg) []byte {
	buf = hurricane.Int64Of.Encode(buf, v.N)
	return hurricane.BytesOf.Encode(buf, v.HLL.Encode())
}

func (gbAggCodec) Decode(record []byte) (*gbAgg, int, error) {
	n, used, err := hurricane.Int64Of.Decode(record)
	if err != nil {
		return nil, 0, err
	}
	raw, m, err := hurricane.BytesOf.Decode(record[used:])
	if err != nil {
		return nil, 0, err
	}
	hll, err := hurricane.DecodeHLL(raw)
	if err != nil {
		return nil, 0, err
	}
	return &gbAgg{N: n, HLL: hll}, used + m, nil
}

// GroupByPlan is GroupByApp as a declarative query: scan the tuples,
// aggregate per key (count + HLL distinct payloads) behind a planner-
// inserted shuffle edge, sink the mergeable partials into GroupByOut.
// Compare the user-facing surface with groupby.go: the bag wiring,
// PartitionedWriter glue, and partial-emission loop are all planner
// output now.
func GroupByPlan() *q.Plan {
	p := q.New("groupbyq")
	src := q.Scan(p, GroupByIn, tupleCodec)
	q.AggregateByKey(src,
		func(t joinPair) uint64 { return t.First },
		gbAggCodec{},
		func() *gbAgg { return &gbAgg{HLL: hurricane.NewHLL(10)} },
		func(a *gbAgg, t joinPair) *gbAgg {
			a.N++
			a.HLL.AddUint64(t.Second)
			return a
		},
		func(a, b *gbAgg) *gbAgg {
			a.N += b.N
			if err := a.HLL.Merge(b.HLL); err != nil {
				// Precisions are fixed at construction; a mismatch is a
				// programming error, not a data condition.
				panic(err)
			}
			return a
		},
	).Sink(GroupByOut)
	return p
}

// JoinWarmStats builds the compile-time statistics for a join of the
// standard relations: the build side's size (broadcast decision) and an
// exact key sketch of the probe side (skewed-join decision and seed
// isolations) — what a previous run's merged edge sketch would have
// recorded. Shared by the plan benchmark, the hurricane-run query job,
// and the examples.
func JoinWarmStats(r, s []workload.Tuple) *q.Stats {
	sb := hurricane.NewStatsBuilder()
	for _, t := range s {
		sb.Add(q.KeyBytes(t.Key), 1)
	}
	stats := q.NewStats()
	stats.Records[JoinBagR] = int64(len(r))
	stats.Edges[JoinBagS] = sb.Stats()
	return stats
}

// JoinShufOut is HashJoinPlan's sink: every match in one bag.
const JoinShufOut = "joinshuf.out"

// HashJoinPlan is HashJoinApp as a declarative query: join the probe
// relation S against the build relation R on the tuple key, emitting the
// same (key, (payloadR, payloadS)) matches into JoinShufOut. The
// physical strategy — repartition, broadcast, or skewed — is the
// planner's call (or the caller's, via q.WithStrategy); the hand-wired
// app pins a static fan of one join task per hash partition.
func HashJoinPlan(opts ...q.JoinOption) *q.Plan {
	p := q.New("hashjoinq")
	build := q.Scan(p, JoinBagR, tupleCodec)
	probe := q.Scan(p, JoinBagS, tupleCodec)
	q.Join(build, probe,
		func(t joinPair) uint64 { return t.First },
		func(t joinPair) uint64 { return t.First },
		matchCodec,
		func(b, s joinPair, emit func(hurricane.Pair[uint64, hurricane.Pair[uint64, uint64]]) error) error {
			return emit(hurricane.Pair[uint64, hurricane.Pair[uint64, uint64]]{
				First:  s.First,
				Second: hurricane.Pair[uint64, uint64]{First: b.Second, Second: s.Second},
			})
		},
		opts...,
	).Sink(JoinShufOut)
	return p
}
