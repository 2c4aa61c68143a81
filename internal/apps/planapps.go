package apps

import (
	"repro/hurricane"
	"repro/hurricane/q"
)

// The query-planner forms of the groupby and the hash join. Tests check
// each against a serial answer computed in plain Go, never against
// another engine run, which would share the engine's faults. New
// scenarios should start here, not at the stage API — see the README's
// query-planner section.

// gbAgg is the groupby accumulator: a record count and an HLL
// distinct-payload estimator.
type gbAgg struct {
	N   int64
	HLL *hurricane.HLL
}

// gbAggCodec encodes a *gbAgg accumulator byte-compatibly with the
// hand-wired groupby's (count, encoded-HLL) pair, so the plan's sink bag
// is readable by the same CollectGroupByFrom collector.
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

// JoinShufOut is HashJoinPlan's sink: every match in one bag.
const JoinShufOut = "joinshuf.out"

// HashJoinPlan is the paper's hash join (§5.3) as a declarative query:
// join the probe relation S against the build relation R on the tuple
// key, emitting (key, (payloadR, payloadS)) matches into JoinShufOut.
// The physical form is the planner's call (broadcast, or repartition
// under q.Options.Static); tests check both against workload.JoinMatches.
func HashJoinPlan() *q.Plan {
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
	).Sink(JoinShufOut)
	return p
}
