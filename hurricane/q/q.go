// Package q is the typed, declarative query API over Hurricane's planner
// (internal/plan): build a logical dataflow — Scan / Filter / Map /
// FlatMap / AggregateByKey / Join / TopK / Sink — and compile it into an
// adaptive DAG job. The compiler fuses adjacent narrow operators into
// single streaming tasks, inserts partitioned shuffle edges only at wide
// boundaries, and picks each join's physical strategy (repartition,
// broadcast, or heavy-hitter-isolating skewed join) from compile-time
// statistics, falling back to the runtime control plane's clones, which
// share a hot partition chunk by chunk, when statistics are missing or
// wrong.
//
//	p := q.New("wordcount")
//	words := q.Scan(p, "in", hurricane.StringOf)
//	counts := q.CountByKey(words, func(w string) uint64 { return hash(w) })
//	counts.Sink("out")
//	c, _ := p.Compile(q.Options{Parts: 4})
//	// same compiled object runs on every surface:
//	_ = c.Run(ctx, cluster)                     // single job
//	h, _ := c.Submit(ctx, cluster, jobCfg)      // multi-job scheduler
//	// or c.App as a RunStream window DAG, or over TCP via hurricane-run
//	got, _ := q.CollectGrouped(ctx, store, c.SinkBag("out"),
//		hurricane.Int64Of, func(a, b int64) int64 { return a + b })
package q

import (
	"context"

	"repro/hurricane"
	"repro/internal/plan"
)

// Re-exported planner types; the q functions below are the typed surface
// over them.
type (
	// Options tunes logical→physical compilation (partitions, broadcast
	// threshold, isolation threshold, static/naive mode, statistics).
	Options = plan.Options
	// Stats carries compile-time statistics: source-bag sizes and warm
	// key-frequency sketches (from a sample, a previous run's
	// StatsFromMemory, or a generator's known distribution).
	Stats = plan.Stats
	// Compiled is an executable physical plan: inspect it with Explain,
	// run it with Run/Submit (which publish the seed partition maps as
	// soon as the job is admitted), or hand Compiled.App to any other
	// execution surface.
	Compiled = plan.Physical
	// JoinStrategy is a physical join implementation.
	JoinStrategy = plan.JoinStrategy
	// StageInfo / JoinInfo describe the compiled plan for inspection.
	StageInfo = plan.StageInfo
	JoinInfo  = plan.JoinInfo
)

// Join strategies, comparable against JoinInfo.Strategy and usable with
// WithStrategy.
const (
	JoinAuto        = plan.JoinAuto
	JoinRepartition = plan.JoinRepartition
	JoinBroadcast   = plan.JoinBroadcast
	JoinSkewed      = plan.JoinSkewed
)

// NewStats returns empty compile-time statistics ready to be filled.
func NewStats() *Stats { return plan.NewStats() }

// StatsFromMemory converts a finished job's skew memory
// (cluster.Master().EdgeMemory() or JobHandle.Master().EdgeMemory())
// into compile statistics for a repeated run of the same plan. prefix is
// the finished job's namespace ("" for raw/Cluster.Run jobs).
func StatsFromMemory(mem map[string]hurricane.EdgeMemory, prefix string) *Stats {
	return plan.StatsFromMemory(mem, prefix)
}

// KeyBytes is the canonical byte encoding of a uint64 key — use it when
// feeding warm per-key statistics (sketch builders) to the planner so
// they match what the compiled shuffle writers route on.
func KeyBytes(k uint64) []byte { return plan.KeyBytes(k) }

// Plan is a logical query plan under construction.
type Plan struct{ p *plan.Plan }

// New returns an empty plan. The name becomes the compiled application's
// name and prefixes its generated bags.
func New(name string) *Plan { return &Plan{p: plan.New(name)} }

// Compile lowers the plan to an executable physical form.
func (p *Plan) Compile(opts Options) (*Compiled, error) { return plan.Compile(p.p, opts) }

// Validate checks the logical plan without compiling.
func (p *Plan) Validate() error { return p.p.Validate() }

// Dataset is a typed handle on one logical operator's output.
type Dataset[T any] struct {
	p *Plan
	n *plan.Node
}

// Sink materializes the dataset into a named output bag. Sinking an
// AggregateByKey stores mergeable partials — read them back with
// CollectGrouped, which reconciles keys spread across consumers.
func (d *Dataset[T]) Sink(bag string) *Dataset[T] {
	d.p.p.Sink(d.n, bag)
	return d
}

// The operators below hand the planner typed functions as they are: each
// plan constructor closes over them in a kernel that works on []T vectors,
// so a compiled stage never boxes a record. The only type erasure is the
// *plan.Node a Dataset[T] wraps, undone once per operator when a worker
// wires its stage.

// Scan reads a source bag. Load and seal it (hurricane.Load /
// hurricane.Seal) before the compiled job runs — under the JobHandle.Bag
// name for namespaced submissions.
func Scan[T any](p *Plan, bag string, codec hurricane.Codec[T]) *Dataset[T] {
	return &Dataset[T]{p: p, n: plan.Scan(p.p, bag, codec)}
}

// Filter keeps the records pred accepts. pred is shared by every worker
// of the compiled stage (originals and clones alike) and must be
// stateless; see MapPerWorker for stateful per-record operators.
func Filter[T any](d *Dataset[T], pred func(T) bool) *Dataset[T] {
	return &Dataset[T]{p: d.p, n: plan.Filter(d.p.p, d.n, pred)}
}

// Map transforms each record. fn is shared by every worker of the
// compiled stage and must be stateless; use MapPerWorker for stateful
// transforms.
func Map[T, U any](d *Dataset[T], codec hurricane.Codec[U], fn func(T) U) *Dataset[U] {
	return MapPerWorker(d, codec, func() func(T) U { return fn })
}

// MapPerWorker is Map with worker-local state: factory runs once per
// worker (original or clone), and the returned function transforms that
// worker's records. Use it for stateful per-record operators — batched
// cost accounting, caches, counters — which would race if one closure
// were shared across concurrent clones.
func MapPerWorker[T, U any](d *Dataset[T], codec hurricane.Codec[U], factory func() func(T) U) *Dataset[U] {
	n := plan.MapPerWorker(d.p.p, d.n, codec, func() func(T) (U, error) {
		fn := factory()
		return func(v T) (U, error) { return fn(v), nil }
	})
	return &Dataset[U]{p: d.p, n: n}
}

// FlatMap emits zero or more records per input record. fn is shared by
// every worker of the compiled stage and must be stateless; see
// MapPerWorker for stateful per-record operators.
func FlatMap[T, U any](d *Dataset[T], codec hurricane.Codec[U], fn func(T, func(U) error) error) *Dataset[U] {
	return &Dataset[U]{p: d.p, n: plan.FlatMap(d.p.p, d.n, codec, fn)}
}

// AggregateByKey groups records by key behind a partitioned shuffle edge
// and folds them into per-key accumulators. The aggregation must be
// mergeable (§2.3): add folds one record in, merge reconciles two
// accumulators of the same key — which is what lets the engine spread a
// hot partition's records across clones of its consumer mid-run. The
// output records are (key, accumulator) partials; a key may appear in
// several partials until a downstream finalize (TopK, Map, ...) or
// CollectGrouped merges them.
func AggregateByKey[T, A any](
	d *Dataset[T],
	key func(T) uint64,
	accCodec hurricane.Codec[A],
	init func() A,
	add func(A, T) A,
	merge func(A, A) A,
) *Dataset[hurricane.Pair[uint64, A]] {
	spec := plan.GroupBySpec[T, A]{Key: key, AccCodec: accCodec, Init: init, Add: add, Merge: merge}
	return &Dataset[hurricane.Pair[uint64, A]]{p: d.p, n: plan.GroupBy(d.p.p, d.n, spec)}
}

// CountByKey counts records per key — AggregateByKey with an int64
// counter.
func CountByKey[T any](d *Dataset[T], key func(T) uint64) *Dataset[hurricane.Pair[uint64, int64]] {
	return AggregateByKey(d, key, hurricane.Int64Of,
		func() int64 { return 0 },
		func(acc int64, _ T) int64 { return acc + 1 },
		func(a, b int64) int64 { return a + b },
	)
}

// JoinOption tweaks one join.
type JoinOption func(*JoinStrategy)

// WithStrategy pins the physical join strategy instead of letting
// statistics decide.
func WithStrategy(s JoinStrategy) JoinOption {
	return func(strategy *JoinStrategy) { *strategy = s }
}

// Join equi-joins two datasets: build (loaded into an in-memory table by
// every join worker) and probe (streamed). The physical strategy — shuffled
// repartition, broadcast, or a skewed join that pre-isolates
// heavy-hitter probe keys onto spread fragment consumers — is chosen per
// edge from compile-time statistics unless pinned with WithStrategy.
// join must be record-parallel: each (build, probe) pair's emissions
// must not depend on other probe records.
func Join[L, R, O any](
	build *Dataset[L],
	probe *Dataset[R],
	buildKey func(L) uint64,
	probeKey func(R) uint64,
	codec hurricane.Codec[O],
	join func(L, R, func(O) error) error,
	opts ...JoinOption,
) *Dataset[O] {
	spec := plan.JoinSpec[L, R, O]{BuildKey: buildKey, ProbeKey: probeKey, Codec: codec, Join: join}
	for _, o := range opts {
		o(&spec.Strategy)
	}
	return &Dataset[O]{p: build.p, n: plan.Join(build.p.p, build.n, probe.n, spec)}
}

// TopK keeps the k greatest records under less (less(a, b) reports a
// ranking below b). It compiles to a single-worker finalize stage — and
// merges upstream AggregateByKey partials first, so ranking happens over
// finalized per-key values.
func TopK[T any](d *Dataset[T], k int, less func(a, b T) bool) *Dataset[T] {
	return &Dataset[T]{p: d.p, n: plan.TopK(d.p.p, d.n, k, less)}
}

// CollectGrouped reads a sunk AggregateByKey bag and merges its partials
// into final per-key accumulators — the read-side reconciliation for
// keys that were spread across consumers.
func CollectGrouped[A any](
	ctx context.Context,
	store *hurricane.Store,
	bagName string,
	accCodec hurricane.Codec[A],
	merge func(A, A) A,
) (map[uint64]A, error) {
	partials, err := hurricane.Collect(ctx, store, bagName, hurricane.PairOf(hurricane.Uint64Of, accCodec))
	if err != nil {
		return nil, err
	}
	out := make(map[uint64]A)
	for _, p := range partials {
		if prev, ok := out[p.First]; ok {
			out[p.First] = merge(prev, p.Second)
		} else {
			out[p.First] = p.Second
		}
	}
	return out, nil
}
