// Package hurricane is the public API of the Hurricane analytics engine, a
// reproduction of "Rock You like a Hurricane: Taming Skew in Large Scale
// Analytics" (Bindschaedler et al., EuroSys 2018).
//
// Hurricane executes dataflow applications — directed graphs of tasks and
// data bags — with adaptive work partitioning: when a node running a task
// becomes overloaded, the application master clones the task onto idle
// nodes, and the clones share the task's input bag, each removing disjoint
// chunks. Application-supplied merge procedures reconcile the clones'
// partial outputs. Data is spread uniformly across all storage nodes and
// retrieved with batch sampling, so cloning never concentrates storage
// load.
//
// A minimal application:
//
//	cluster, _ := hurricane.NewCluster(hurricane.ClusterConfig{})
//	app := hurricane.NewApp("wordlen").
//		SourceBag("words").
//		Bag("lengths")
//	app.AddTask(hurricane.TaskSpec{
//		Name:    "measure",
//		Inputs:  []string{"words"},
//		Outputs: []string{"lengths"},
//		Run: func(tc *hurricane.TaskCtx) error {
//			return hurricane.ForEach(tc, 0, hurricane.StringOf, func(w string) error {
//				return hurricane.NewWriter(tc, 0, hurricane.Int64Of).Write(int64(len(w)))
//			})
//		},
//	})
//
// Load and seal the source bag with Load + Seal, run with cluster.Run, and
// read results with Collect.
package hurricane

import (
	"context"
	"reflect"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/sched"
)

// Re-exported engine types. The core engine lives in internal/core; these
// aliases are the supported public surface.
type (
	// Cluster is an embedded Hurricane cluster (storage nodes, compute
	// nodes, application master).
	Cluster = core.Cluster
	// ClusterConfig sizes and tunes a cluster.
	ClusterConfig = core.ClusterConfig
	// NodeConfig tunes compute-node monitoring and overload detection.
	NodeConfig = core.NodeConfig
	// MasterConfig tunes the application master and its cloning.
	MasterConfig = core.MasterConfig
	// MasterStats reports cloning/merge/recovery activity counters.
	MasterStats = core.MasterStats
	// App is a dataflow application graph of tasks and bags.
	App = core.App
	// TaskSpec declares one task.
	TaskSpec = core.TaskSpec
	// BagSpec declares one bag.
	BagSpec = core.BagSpec
	// TaskCtx is the execution context passed to task functions.
	TaskCtx = core.TaskCtx
	// TaskFunc is a task (or merge) body.
	TaskFunc = core.TaskFunc
	// Store is the bag store through which applications load inputs and
	// read outputs.
	Store = bag.Store
	// Bag is a client handle to a named bag.
	Bag = bag.Bag
	// Stats describes a bag's contents (sampled).
	Stats = bag.Stats
	// Chunk is a block of framed records.
	Chunk = chunk.Chunk
	// KV is a key/value record.
	KV = chunk.KV
)

// NewCluster provisions an embedded cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return core.NewCluster(cfg) }

// NewApp returns an empty application graph.
func NewApp(name string) *App { return core.NewApp(name) }

// ---- multi-job scheduling (internal/sched) ----
//
// One cluster executes any number of concurrent jobs. Each submission
// gets its own application master and — unless JobConfig.Raw — a bag
// namespace, so jobs built from the same graph cannot collide; the
// registry validates at submit time that no two live jobs can touch the
// same physical bag (including names derived at runtime). Worker slots
// are arbitrated by weighted fair-share leasing: a job may use the whole
// cluster while alone, but when a neighbor starves, over-share jobs stop
// claiming and their clone workers are preempted cooperatively (they
// yield at the next chunk boundary; late binding hands their remaining
// chunks to the task's surviving workers, so no work is lost or redone).
//
//	jobA, _ := cluster.SubmitJob(ctx, app, hurricane.JobConfig{Name: "a"})
//	jobB, _ := cluster.SubmitJob(ctx, app, hurricane.JobConfig{Name: "b", Weight: 2})
//	hurricane.Load(ctx, store, jobA.Bag("in"), codec, dataA) // namespaced names
//	...
//	_ = jobA.Wait(ctx)
//
// Cluster.Run remains the single-job path: a Submit-and-Wait with
// namespacing disabled.
type (
	// JobConfig tunes one job submission (name, namespace, fair-share
	// weight, seed partition maps). Every job's master runs under the
	// cluster's MasterConfig.
	JobConfig = core.JobConfig
	// JobHandle is the caller's grip on a submitted job: Bag (name
	// mapping), Wait, Err, Stats, Discard.
	JobHandle = core.JobHandle
	// JobStats reports a job's scheduling state and master counters.
	JobStats = core.JobStats
	// JobState is a job's lifecycle state (running, done, failed).
	JobState = sched.State
	// SchedConfig tunes the multi-job scheduler (ClusterConfig.Sched):
	// fair-share leasing.
	SchedConfig = sched.Config
)

// JobState values, comparable against JobHandle.State().
const (
	JobRunning = sched.StateRunning
	JobDone    = sched.StateDone
	JobFailed  = sched.StateFailed
)

// ---- adaptive control plane (internal/ctrl) ----
//
// Skew mitigation runs as pluggable policies over an event-driven
// telemetry hub. The master builds versioned Snapshots from worker
// heartbeats, overload signals, bag depths, and merged shuffle-edge
// sketches; each configured Policy proposes declarative Actions, one clone
// per overload signal; the arbiter holds them to the clone budget (free
// slots, the job's lease) and the master applies the survivors
// transactionally. The paper-figure simulator runs the same policy.
//
// Select policies per job through MasterConfig.Policies: nil installs the
// default set (DefaultPolicies); an explicit empty slice disables all
// mitigation. A custom policy implements Policy (its snapshots carry every
// active shuffle edge's merged sketch) and composes freely with the
// built-in one:
//
//	cfg.Master.Policies = append(
//		hurricane.DefaultPolicies(cfg.Master),
//		&myDeadlinePolicy{},
//	)
type (
	// Policy is one interchangeable skew-mitigation strategy: it reads a
	// telemetry Snapshot and proposes Actions.
	Policy = ctrl.Policy
	// Snapshot is a versioned, read-only view of cluster telemetry.
	Snapshot = ctrl.Snapshot
	// Action is a declarative mitigation decision. The vocabulary is
	// closed — CloneTask (and the internal reject bookkeeping) is
	// everything the master can apply; custom policies compose it rather
	// than defining new action types.
	Action = ctrl.Action
	// CloneTask schedules one additional worker for a running task.
	CloneTask = ctrl.CloneTask
	// TaskTel is per-task telemetry within a Snapshot.
	TaskTel = ctrl.TaskTel
	// EdgeTel is per-shuffle-edge telemetry within a Snapshot.
	EdgeTel = ctrl.EdgeTel
	// ClonePolicy is the paper's cloning on overload signals (§4.2).
	ClonePolicy = ctrl.ClonePolicy
)

// DefaultPolicies is the set a nil MasterConfig.Policies installs: one
// ClonePolicy tuned by cfg.
func DefaultPolicies(cfg MasterConfig) []Policy { return core.DefaultPolicies(cfg) }

// ErrEmpty is the end-of-bag signal returned by Bag.Remove and TaskCtx
// input reads.
var ErrEmpty = bag.ErrEmpty

// Codec serializes records of type T.
type Codec[T any] = chunk.Codec[T]

// Ready-made codecs for common record types.
var (
	// Int64Of encodes int64 records.
	Int64Of = chunk.Int64Codec{}
	// Uint64Of encodes uint64 records as varints — compact for small
	// values (counters, enum-like keys).
	Uint64Of = chunk.Uint64Codec{}
	// Uint64FixedOf encodes uint64 records as fixed 8-byte words — the
	// right choice for high-entropy fields (hashes, random payloads),
	// where varints average over nine bytes and a per-value decode loop.
	Uint64FixedOf = chunk.Uint64FixedCodec{}
	// Float64Of encodes float64 records.
	Float64Of = chunk.Float64Codec{}
	// StringOf encodes string records.
	StringOf = chunk.StringCodec{}
	// BytesOf encodes raw byte-slice records.
	BytesOf = chunk.BytesCodec{}
	// KVOf encodes key/value records.
	KVOf = chunk.KVCodec{}
)

// Pair is a two-field tuple record.
type Pair[A, B any] = chunk.Pair[A, B]

// PairOf builds a codec for Pair records from two component codecs.
func PairOf[A, B any](a Codec[A], b Codec[B]) Codec[Pair[A, B]] {
	return chunk.PairCodec[A, B]{A: a, B: b}
}

// ForEach drains input i of the task, decoding each record with codec and
// invoking fn. It returns nil once the input is exhausted. This is the
// idiomatic body of a streaming task: because chunks are pulled one at a
// time from the shared input bag, any number of clones can run the same
// loop concurrently.
func ForEach[T any](tc *TaskCtx, input int, codec Codec[T], fn func(T) error) error {
	return ForEachBatch(tc, input, codec, each(fn))
}

// ForEachScan reads scan input i in full (without consuming it), decoding
// each record with codec and invoking fn. Every worker of the task —
// original and clones alike — sees the complete bag, which is how shared
// lookup state (a hash join's build side, PageRank's rank vector) is
// distributed to clones.
func ForEachScan[T any](tc *TaskCtx, scanInput int, codec Codec[T], fn func(T) error) error {
	return forEachVec(func() (Chunk, error) { return tc.Scan(scanInput) }, codec, each(fn))
}

// Writer writes typed records to one of a task's outputs through a
// chunk.Encoder, so the chunks are column batches in the codec's columns (a
// codec with none of its own gets one blob column of its row encoding).
type Writer[T any] struct{ enc *chunk.Encoder[T] }

// NewWriter returns a typed record writer for output out. Writers for one
// output and codec share the worker's open chunk — making one per record is
// as cheap as keeping one — and the engine flushes it when the task
// completes.
func NewWriter[T any](tc *TaskCtx, out int, codec Codec[T]) *Writer[T] {
	open := tc.OutputEncoders(out)
	for _, o := range *open {
		if enc, ok := o.(*chunk.Encoder[T]); ok && sameCodec(enc.Codec(), codec) {
			return &Writer[T]{enc: enc}
		}
	}
	enc := chunk.NewEncoder(codec, tc.Store().ChunkSize(), func(c Chunk, _ int) error {
		return tc.Insert(out, c)
	})
	*open = append(*open, enc)
	tc.OnFinish(enc.Close)
	return &Writer[T]{enc: enc}
}

// sameCodec reports whether two codecs are the same value. Codecs that
// cannot be compared (a struct holding a slice or a func) are never the
// same: their writers get an encoder each.
func sameCodec(a, b any) bool { return reflect.ValueOf(a).Comparable() && a == b }

// Write appends one record to the output.
func (w *Writer[T]) Write(v T) error { return w.enc.Append(v) }

// Load inserts values into the named bag, one bag handle streaming chunks
// across all storage nodes; like every writer it goes through a
// chunk.Encoder, so the chunks are column batches. Call Seal when the bag's
// contents are complete.
func Load[T any](ctx context.Context, store *Store, bagName string, codec Codec[T], values []T) error {
	ins := store.Bag(bagName).Inserter(ctx)
	enc := chunk.NewEncoder(codec, store.ChunkSize(), func(c Chunk, _ int) error { return ins.Insert(c) })
	err := enc.AppendRows(values, nil)
	if cerr := enc.Close(); err == nil {
		err = cerr
	}
	if cerr := ins.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadBatch is Load: the layout of a bag's chunks follows its codec, not
// the function that loaded it. The name remains for callers written when
// the two differed.
func LoadBatch[T any](ctx context.Context, store *Store, bagName string, codec Codec[T], values []T) error {
	return Load(ctx, store, bagName, codec, values)
}

// Seal marks the named bag complete. Source bags must be sealed before the
// application starts.
func Seal(ctx context.Context, store *Store, bagName string) error {
	return store.Seal(ctx, bagName)
}

// Collect reads every record of the named bag without consuming it,
// decoding with codec. Use it to fetch job results after Run returns.
func Collect[T any](ctx context.Context, store *Store, bagName string, codec Codec[T]) ([]T, error) {
	// Count, then decode into one allocation: grown chunk by chunk the result
	// is reallocated some twenty times, five times its size in all. The held
	// chunks alias an in-process store's; from a remote one they are copies.
	var chunks []chunk.Chunk
	records := 0
	if _, err := store.Scanner(bagName).Drain(ctx, func(c chunk.Chunk) error {
		n, err := chunk.Count(c)
		chunks, records = append(chunks, c), records+n
		return err
	}); err != nil {
		return nil, err
	}
	d, out := chunk.NewDecoder(codec), make([]T, 0, records)
	for _, c := range chunks {
		var err error
		if out, err = d.Decode(c, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}
