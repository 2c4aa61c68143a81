package apps

import (
	"time"

	"repro/hurricane"
)

// GroupByBatchApp is GroupByApp on the vectorized data plane: the shuffle
// stage partitions whole column batches (one routing pass and one bulk
// sketch feed per batch) and the aggregate stage consumes batches. Partial
// outputs are bit-compatible with GroupByApp's, so CollectGroupBy merges
// results from either (or both) and serves as the cross-implementation
// oracle.
func GroupByBatchApp(parts int, spread, noClone bool, recordCostNS int) *hurricane.App {
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
			return hurricane.ForEachBatch(tc, 0, tupleCodec, pw.WriteBatch)
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
			var owedNS int64
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
					var a *agg
					if lastAgg != nil && t.First == lastKey {
						a = lastAgg
					} else if a = groups[t.First]; a == nil {
						a = &agg{}
						groups[t.First] = a
					}
					lastKey, lastAgg = t.First, a
					if a.hll == nil {
						a.hll = hurricane.NewHLL(10)
					}
					a.n++
					a.hll.AddUint64(t.Second)
				}
				if recordCostNS > 0 {
					owedNS += int64(recordCostNS) * int64(len(ts))
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
