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
type gbAgg = hurricane.Pair[int64, *hurricane.HLL]

// gbAggCodec lays a gbAgg out as the hand-wired groupby's (count,
// encoded-HLL) columns: a zig-zag varint and, since hllCodec has no
// columns of its own, the blob column of its encoding. So the plan's sink
// has groupByOutCodec's columns, and CollectGroupBy reads it.
var gbAggCodec = hurricane.PairOf[int64, *hurricane.HLL](hurricane.Int64Of, hllCodec{})

// hllCodec encodes an HLL as its Encode bytes, which say how long they are.
type hllCodec struct{}

func (hllCodec) Encode(buf []byte, h *hurricane.HLL) []byte { return append(buf, h.Encode()...) }

func (hllCodec) Decode(rec []byte) (*hurricane.HLL, int, error) {
	n := 1
	if len(rec) > 0 && rec[0] <= 16 {
		n += 1 << rec[0]
	}
	h, err := hurricane.DecodeHLL(rec[:min(n, len(rec))])
	return h, n, err
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
		gbAggCodec,
		func() gbAgg { return gbAgg{Second: hurricane.NewHLL(10)} },
		func(a gbAgg, t joinPair) gbAgg {
			a.First++
			a.Second.AddUint64(t.Second)
			return a
		},
		func(a, b gbAgg) gbAgg {
			a.First += b.First
			if err := a.Second.Merge(b.Second); err != nil {
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
