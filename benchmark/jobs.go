package main

import (
	"context"
	"fmt"
	"time"

	"repro/hurricane"
	"repro/hurricane/q"
)

// The five jobs are written here against the public hurricane and
// hurricane/q APIs only, so changes under internal/apps cannot break the
// benchmark and so every task body can be wrapped in spans.

const (
	bagIn    = "bench.in"    // groupby source / join probe side S
	bagBuild = "bench.build" // join build side R
	bagShuf  = "bench.shuf"  // groupby shuffle edge
	bagOut   = "bench.out"   // per-key partials / join matches
)

// keyed is (key, (a, b)): a groupby partial (count, sum) or a join match
// (build payload, probe payload).
type keyed = hurricane.Pair[uint64, hurricane.Pair[uint64, uint64]]

var (
	tupleCodec   = hurricane.PairOf(hurricane.Uint64Of, hurricane.Uint64FixedOf)
	partialCodec = hurricane.PairOf(hurricane.Uint64Of, hurricane.PairOf(hurricane.Uint64Of, hurricane.Uint64FixedOf))
	matchCodec   = hurricane.PairOf(hurricane.Uint64Of, hurricane.PairOf(hurricane.Uint64FixedOf, hurricane.Uint64FixedOf))
)

func tupleKey(t tuple) uint64 { return t.First }

// job is one runnable instance of a workload's dataflow.
type job struct {
	load    func(ctx context.Context, store *hurricane.Store) error
	run     func(ctx context.Context, c *hurricane.Cluster) error
	collect func(ctx context.Context, store *hurricane.Store) (map[uint64]agg, error)
}

// newJob builds a fresh job over the input. jt == nil builds it untraced:
// the bodies then call the engine directly, with no wrapper on any path.
func (w *workload) newJob(in *input, jt *jobTrace) (*job, error) {
	if w.kind == joinPlan {
		return newJoinJob(w, in, jt)
	}
	app := groupbyApp(w, jt)
	load := hurricane.Load[tuple]
	if w.kind == groupbyBatch {
		load = hurricane.LoadBatch[tuple]
	}
	return &job{
		load: func(ctx context.Context, store *hurricane.Store) error {
			if err := load(ctx, store, bagIn, tupleCodec, in.probe); err != nil {
				return err
			}
			return hurricane.Seal(ctx, store, bagIn)
		},
		run: func(ctx context.Context, c *hurricane.Cluster) error { return c.Run(ctx, app) },
		collect: func(ctx context.Context, store *hurricane.Store) (map[uint64]agg, error) {
			return collectKeyed(ctx, store, bagOut, partialCodec, func(a *agg, v hurricane.Pair[uint64, uint64]) {
				a.n += v.First
				a.sum += v.Second
			})
		},
	}, nil
}

// groupbyApp is the keyed count+sum: a shuffle task routes tuples by key
// onto a partitioned, spreadable edge; aggregate workers fold them into
// per-key partials, which merge at collect time.
func groupbyApp(w *workload, jt *jobTrace) *hurricane.App {
	app := hurricane.NewApp("bench")
	app.SourceBag(bagIn)
	app.AddBag(hurricane.BagSpec{Name: bagShuf, Partitions: w.parts, Spread: true})
	app.Bag(bagOut)

	shuffle := func(tc *hurricane.TaskCtx, bs *bodySpans) error {
		if w.kind == groupbyBatch {
			pw := hurricane.NewPartitionedWriterUint64(tc, 0, tupleCodec, tupleKey)
			return forEachBatch(bs, tc, 0, tupleCodec, timed(bs, "hurricane.WriteBatch", 1, pw.WriteBatch))
		}
		pw := hurricane.NewPartitionedWriter(tc, 0, tupleCodec, hurricane.Uint64Key(tupleKey))
		return forEach(bs, tc, 0, tupleCodec, timed(bs, "hurricane.Write", rowStride, pw.Write))
	}

	aggregate := func(tc *hurricane.TaskCtx, bs *bodySpans) error {
		groups := make(map[uint64]*agg)
		var records, owedNS int64
		fold := func(t tuple) {
			a := groups[t.First]
			if a == nil {
				a = &agg{}
				groups[t.First] = a
			}
			a.n++
			a.sum += t.Second
		}
		// The simulated cost is slept in >=500us batches: finer sleeps
		// overshoot on coarse timers.
		pay := func(n int) {
			records += int64(n)
			if w.costNS == 0 {
				return
			}
			if owedNS += int64(n) * int64(w.costNS); owedNS >= 500_000 {
				time.Sleep(time.Duration(owedNS))
				owedNS = 0
			}
		}
		var err error
		if w.kind == groupbyBatch {
			err = forEachBatch(bs, tc, 0, tupleCodec, func(ts []tuple) error {
				for _, t := range ts {
					fold(t)
				}
				pay(len(ts))
				return nil
			})
		} else {
			err = forEach(bs, tc, 0, tupleCodec, func(t tuple) error {
				fold(t)
				pay(1)
				return nil
			})
		}
		if err != nil {
			return err
		}
		time.Sleep(time.Duration(owedNS))
		if bs != nil {
			bs.jt.addLoad(records)
		}
		write := timed(bs, "hurricane.Write", rowStride, hurricane.NewWriter(tc, 0, partialCodec).Write)
		for k, a := range groups {
			if err := write(keyed{First: k, Second: hurricane.Pair[uint64, uint64]{First: a.n, Second: a.sum}}); err != nil {
				return err
			}
		}
		return nil
	}

	app.AddTask(hurricane.TaskSpec{Name: "shuffle", Inputs: []string{bagIn}, Outputs: []string{bagShuf},
		Run: task(jt, "apps.task:shuffle", shuffle)})
	app.AddTask(hurricane.TaskSpec{Name: "aggregate", Inputs: []string{bagShuf}, Outputs: []string{bagOut},
		Run: task(jt, "apps.task:aggregate", aggregate)})
	return app
}

// newJoinJob compiles build ⋈ probe with no statistics (a cold plan), so
// the planner repartitions both sides and the runtime control plane has to
// find the heavy probe keys by itself.
func newJoinJob(w *workload, in *input, jt *jobTrace) (*job, error) {
	compiled, err := joinPlanOf().Compile(q.Options{Parts: w.parts})
	if err != nil {
		return nil, fmt.Errorf("compile join: %w", err)
	}
	if jt != nil {
		// Planner-generated bodies cannot be opened up from here; each is
		// one opaque "plan.task" span.
		for _, name := range compiled.App.Tasks() {
			t := compiled.App.Task(name)
			run := t.Run
			t.Run = task(jt, "plan.task:"+name, func(tc *hurricane.TaskCtx, _ *bodySpans) error { return run(tc) })
			if merge := t.Merge; merge != nil {
				t.Merge = task(jt, "plan.merge:"+name, func(tc *hurricane.TaskCtx, _ *bodySpans) error { return merge(tc) })
			}
		}
	}
	return &job{
		load: func(ctx context.Context, store *hurricane.Store) error {
			for _, side := range []struct {
				bag  string
				data []tuple
			}{{bagBuild, in.build}, {bagIn, in.probe}} {
				if err := hurricane.LoadBatch(ctx, store, side.bag, tupleCodec, side.data); err != nil {
					return err
				}
				if err := hurricane.Seal(ctx, store, side.bag); err != nil {
					return err
				}
			}
			return nil
		},
		run: func(ctx context.Context, c *hurricane.Cluster) error { return compiled.Run(ctx, c) },
		collect: func(ctx context.Context, store *hurricane.Store) (map[uint64]agg, error) {
			return collectKeyed(ctx, store, compiled.SinkBag(bagOut), matchCodec, func(a *agg, v hurricane.Pair[uint64, uint64]) {
				a.n++
				a.sum += v.First + v.Second
			})
		},
	}, nil
}

func joinPlanOf() *q.Plan {
	p := q.New("benchjoin")
	build := q.Scan(p, bagBuild, tupleCodec)
	probe := q.Scan(p, bagIn, tupleCodec)
	q.Join(build, probe, tupleKey, tupleKey, matchCodec,
		func(b, s tuple, emit func(keyed) error) error {
			return emit(keyed{First: s.First, Second: hurricane.Pair[uint64, uint64]{First: b.Second, Second: s.Second}})
		}).Sink(bagOut)
	return p
}

// collectKeyed reads a result bag and folds its records per key.
func collectKeyed(ctx context.Context, store *hurricane.Store, bag string, codec hurricane.Codec[keyed],
	fold func(*agg, hurricane.Pair[uint64, uint64])) (map[uint64]agg, error) {
	recs, err := hurricane.Collect(ctx, store, bag, codec)
	if err != nil {
		return nil, err
	}
	got := make(map[uint64]agg)
	for _, r := range recs {
		a := got[r.First]
		fold(&a, r.Second)
		got[r.First] = a
	}
	return got, nil
}

// checkResult is the oracle comparison: every key, count and sum must match
// the serial computation exactly.
func checkResult(want, got map[uint64]agg) error {
	if len(got) != len(want) {
		return fmt.Errorf("oracle: %d keys, want %d", len(got), len(want))
	}
	for k, a := range want {
		if got[k] != a {
			return fmt.Errorf("oracle: key %d = (count %d, sum %d), want (count %d, sum %d)",
				k, got[k].n, got[k].sum, a.n, a.sum)
		}
	}
	return nil
}
