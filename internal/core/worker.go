package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/obs"
	"repro/internal/shuffle"
)

// TaskCtx is the execution context handed to a TaskFunc. It exposes the
// worker's input and output bags and transparently accounts busy/wait time
// for the overload detector.
type TaskCtx struct {
	ctx   context.Context
	bp    *Blueprint
	store *bag.Store
	app   *App
	obs   *obs.Observer // nil-safe; instrumented helpers no-op when unset
	job   string        // owning job ID, labels per-job series

	ins   []*bag.Bag
	outs  []*bag.Bag
	scans []*bag.Scanner

	encoders  [][]any
	inserters []*bag.Inserter
	shuffles  []*shuffle.Writer
	onFinish  []func() error

	// load accounting (nanoseconds)
	busyNS atomic.Int64
	waitNS atomic.Int64
	last   atomic.Int64 // wall-clock ns when the worker last got control

	bytesIn  atomic.Int64
	bytesOut atomic.Int64
	chunksIn atomic.Int64

	// Profiler span accounting. Unlike busyNS/waitNS (reset every monitor
	// interval by loadSnapshot), spans accumulate over the worker's whole
	// lifetime. Plain fields on purpose: they are written only by the
	// worker goroutine (the shuffle writers a task owns run on it too) and
	// read by the completion path after the done channel closes, which
	// orders the accesses.
	spans       spanAcc
	spanStartNS int64 // unix ns when the worker got its first control
	spanEndNS   int64 // unix ns when the task function (and finish) returned
	queueNS     int64 // blueprint publication to worker start

	// yieldReq asks the worker to stop consuming at its next chunk
	// boundary and finish normally (fair-share preemption of clones).
	yieldReq atomic.Bool
	// yieldApplied records that the input pipelines have been quiesced
	// (worker goroutine only).
	yieldApplied bool
}

func newTaskCtx(ctx context.Context, bp *Blueprint, store *bag.Store, app *App, o *obs.Observer, job string) *TaskCtx {
	tc := &TaskCtx{ctx: ctx, bp: bp, store: store, app: app, obs: o, job: job}
	for _, in := range bp.Inputs {
		tc.ins = append(tc.ins, store.Bag(in))
	}
	for _, out := range bp.Outputs {
		tc.outs = append(tc.outs, store.Bag(out))
	}
	for _, sc := range bp.ScanInputs {
		tc.scans = append(tc.scans, store.Scanner(sc))
	}
	tc.encoders = make([][]any, len(tc.outs))
	tc.inserters = make([]*bag.Inserter, len(tc.outs))
	tc.last.Store(time.Now().UnixNano())
	return tc
}

// Context returns the worker's cancellation context. TaskFuncs performing
// long computations should check it periodically.
func (tc *TaskCtx) Context() context.Context { return tc.ctx }

// Blueprint returns the worker's blueprint (ID, worker index, epoch).
func (tc *TaskCtx) Blueprint() *Blueprint { return tc.bp }

// NumInputs returns the number of input bags.
func (tc *TaskCtx) NumInputs() int { return len(tc.ins) }

// NumOutputs returns the number of output bags.
func (tc *TaskCtx) NumOutputs() int { return len(tc.outs) }

// markBusyStart transitions accounting from "worker computing" to "worker
// waiting on storage" and returns the wait-start timestamp.
func (tc *TaskCtx) markBusyEnd() int64 {
	now := time.Now().UnixNano()
	tc.busyNS.Add(now - tc.last.Load())
	return now
}

// markWaitEnd closes a wait span and returns its duration, so callers
// can attribute the same measured interval to a profiler phase without
// a second clock read.
func (tc *TaskCtx) markWaitEnd(start int64) int64 {
	now := time.Now().UnixNano()
	tc.waitNS.Add(now - start)
	tc.last.Store(now)
	return now - start
}

// spanAcc accumulates the profiler's per-phase durations and shuffle
// write counts. See the TaskCtx.spans field comment for why plain
// fields are safe here.
type spanAcc struct {
	readNS     int64 // blocked removing/scanning input chunks
	writeNS    int64 // blocked on pipelined output inserts
	shuffleNS  int64 // partitioned-writer chunk flushes (shuffle.Writer)
	finalizeNS int64 // end-of-task flush beyond the above
	records    int64
	parts      map[string]int64
}

func (a *spanAcc) addRead(ns int64)  { a.readNS += ns }
func (a *spanAcc) addWrite(ns int64) { a.writeNS += ns }

// requestYield asks the worker to wind down consumption and finish
// normally: its input pipelines are quiesced (no further chunks are
// removed from storage, but chunks the prefetch pipeline already
// consumed keep flowing — dropping them would lose data), the task
// function then observes an ordinary end-of-input, flushes its outputs,
// and completes. The chunks the worker never took are consumed by the
// task's other workers through ordinary late binding. This is how the
// multi-job scheduler preempts a clone without losing or redoing work;
// it is only ever invoked on clones whose input bags another live worker
// of the same task drains.
func (tc *TaskCtx) requestYield() { tc.yieldReq.Store(true) }

// Remove pulls the next chunk from input i. It returns bag.ErrEmpty when
// the input is exhausted, which is the worker's termination signal.
func (tc *TaskCtx) Remove(i int) (chunk.Chunk, error) {
	if tc.yieldReq.Load() && !tc.yieldApplied {
		tc.yieldApplied = true
		for _, in := range tc.ins {
			in.Quiesce()
		}
	}
	start := tc.markBusyEnd()
	c, err := tc.ins[i].Remove(tc.ctx)
	tc.spans.addRead(tc.markWaitEnd(start))
	if err == nil {
		tc.bytesIn.Add(int64(len(c)))
		tc.chunksIn.Add(1)
	}
	return c, err
}

// Scan reads the next chunk of scan input i without consuming it. Unlike
// Remove, every worker of the task sees the complete bag. It returns
// bag.ErrEmpty at the end of the (sealed) bag.
func (tc *TaskCtx) Scan(i int) (chunk.Chunk, error) {
	start := tc.markBusyEnd()
	defer func() { tc.spans.addRead(tc.markWaitEnd(start)) }()
	for {
		c, err := tc.scans[i].Next(tc.ctx)
		if err == bag.ErrAgain {
			// A scheduled task's scan inputs are sealed, but seal
			// propagation and scanning race benignly; retry.
			if !sleepCtx(tc.ctx, time.Millisecond) {
				return nil, tc.ctx.Err()
			}
			continue
		}
		if err == nil {
			tc.bytesIn.Add(int64(len(c)))
		}
		return c, err
	}
}

// Insert writes one chunk to output i through the pipelined insert path.
func (tc *TaskCtx) Insert(i int, c chunk.Chunk) error {
	start := tc.markBusyEnd()
	defer func() { tc.spans.addWrite(tc.markWaitEnd(start)) }()
	if tc.inserters[i] == nil {
		tc.inserters[i] = tc.outs[i].Inserter(tc.ctx)
	}
	tc.bytesOut.Add(int64(len(c)))
	return tc.inserters[i].Insert(c)
}

// OutputEncoders returns the list of typed encoders the worker holds open
// on output i, for the typed writer layer (hurricane.NewWriter) to search
// and extend: every writer a task body makes for one output and codec then
// shares one open chunk, however often the body asks for a writer. Whoever
// adds an encoder registers its Close with OnFinish. Worker goroutine only.
func (tc *TaskCtx) OutputEncoders(i int) *[]any { return &tc.encoders[i] }

// InputName returns the bag name behind input i.
func (tc *TaskCtx) InputName(i int) string { return tc.ins[i].Name() }

// OutputName returns the bag name behind output i.
func (tc *TaskCtx) OutputName(i int) string { return tc.outs[i].Name() }

// Store returns the bag store the worker's bags live in. Partitioned
// writers use it to open physical partition bags at runtime.
func (tc *TaskCtx) Store() *bag.Store { return tc.store }

// Obs returns the cluster observer the worker reports into (nil when
// observability is disabled — all obs handles are nil-safe no-ops).
func (tc *TaskCtx) Obs() *obs.Observer { return tc.obs }

// Job returns the ID of the job the worker belongs to ("" for bare
// masters run outside a cluster).
func (tc *TaskCtx) Job() string { return tc.job }

// OutputBagSpec returns the declared spec of output i's bag (nil if the
// bag is not declared in the app graph, e.g. a partial bag).
func (tc *TaskCtx) OutputBagSpec(i int) *BagSpec {
	if tc.app == nil {
		return nil
	}
	return tc.app.BagSpecFor(tc.OutputName(i))
}

// ShuffleWriter returns a new partitioned writer for output i, or nil if
// the output is not declared as a partitioned bag. Every engine surface that writes a
// shuffle edge — the typed PartitionedWriter, the planner's stage sinks —
// gets its writer here, so all of them identify the producer the same way,
// pace their control exchanges by the master's stats interval, and report
// into the worker's profile. The caller registers the writer's Close (or
// its own flush wrapping it) with OnFinish.
func (tc *TaskCtx) ShuffleWriter(i int) *shuffle.Writer {
	spec := tc.OutputBagSpec(i)
	if spec == nil || spec.Partitions <= 0 {
		return nil
	}
	w := shuffle.NewWriter(tc.ctx, shuffle.WriterConfig{
		Store:         tc.store,
		Edge:          tc.OutputName(i),
		Parts:         spec.Partitions,
		Map:           spec.seed,
		WriterID:      tc.bp.ID,
		StatsInterval: tc.bp.StatsInterval,
		Obs:           tc.obs,
		Job:           tc.job,
		OnSpans: func(ns, records, bytes int64, parts map[string]int64) {
			tc.bytesOut.Add(bytes) // the writer inserts past Insert, which counts the rest
			tc.AddShuffleSpan(ns, records, parts)
		},
	})
	tc.shuffles = append(tc.shuffles, w)
	return w
}

// OnFinish registers fn to run (on the worker goroutine) after the task
// function returns successfully, before completion is reported. Partitioned
// writers register their flush here so buffered chunks are never lost.
func (tc *TaskCtx) OnFinish(fn func() error) {
	tc.onFinish = append(tc.onFinish, fn)
}

// AddShuffleSpan credits ns of partitioned-writer flush time, plus the
// writer's exact record counts (total and per physical partition bag),
// to the worker's profile. The engine's stage sinks call this from the
// shuffle writer's close hook; custom tasks driving a shuffle.Writer
// directly may call it too. Worker goroutine only.
func (tc *TaskCtx) AddShuffleSpan(ns, records int64, parts map[string]int64) {
	tc.spans.shuffleNS += ns
	tc.spans.records += records
	if len(parts) > 0 {
		if tc.spans.parts == nil {
			tc.spans.parts = make(map[string]int64, len(parts))
		}
		for name, n := range parts {
			tc.spans.parts[name] += n
		}
	}
}

// spanSnapshot assembles the worker's TaskSpans record for the done
// event. Call only after the worker goroutine exited; returns nil when
// the worker never started.
func (tc *TaskCtx) spanSnapshot() *obs.TaskSpans {
	if tc.spanStartNS == 0 {
		return nil
	}
	s := &obs.TaskSpans{
		TaskID:     tc.bp.ID,
		Spec:       tc.bp.Spec,
		Worker:     tc.bp.Worker,
		Merge:      tc.bp.Kind == KindMerge,
		StartedNS:  tc.spanStartNS,
		EndedNS:    tc.spanEndNS,
		QueueNS:    tc.queueNS,
		ReadNS:     tc.spans.readNS,
		ShuffleNS:  tc.spans.writeNS + tc.spans.shuffleNS,
		FinalizeNS: tc.spans.finalizeNS,
		BytesIn:    tc.bytesIn.Load(),
		BytesOut:   tc.bytesOut.Load(),
		ChunksIn:   tc.chunksIn.Load(),
		Records:    tc.spans.records,
		Parts:      tc.spans.parts,
	}
	// Compute is everything the wall clock covers that no other phase
	// claimed, so the in-worker phases always sum exactly to wall time.
	if c := (s.EndedNS - s.StartedNS) - s.ReadNS - s.ShuffleNS - s.FinalizeNS; c > 0 {
		s.ComputeNS = c
	}
	return s
}

// BytesIn reports total input bytes consumed so far.
func (tc *TaskCtx) BytesIn() int64 { return tc.bytesIn.Load() }

// BytesOut reports total output bytes produced so far.
func (tc *TaskCtx) BytesOut() int64 { return tc.bytesOut.Load() }

// loadSnapshot returns and resets the busy/wait accounting. The task
// manager's monitor calls this once per monitoring interval; the returned
// busy fraction drives overload detection.
func (tc *TaskCtx) loadSnapshot() (busyFrac float64) {
	now := time.Now().UnixNano()
	// Attribute the currently-accruing busy span.
	tc.busyNS.Add(now - tc.last.Swap(now))
	busy := tc.busyNS.Swap(0)
	wait := tc.waitNS.Swap(0)
	total := busy + wait
	if total <= 0 {
		return 0
	}
	return float64(busy) / float64(total)
}

// finish runs the OnFinish hooks and then closes the inserters.
// Called by the worker runtime after the TaskFunc returns successfully.
func (tc *TaskCtx) finish() error {
	for _, fn := range tc.onFinish {
		if err := fn(); err != nil {
			return err
		}
	}
	for i, ins := range tc.inserters {
		if ins != nil {
			if err := ins.Close(); err != nil {
				return fmt.Errorf("core: closing output %d: %w", i, err)
			}
		}
	}
	return nil
}

// close releases consumer pipelines and waits out the inserts the worker
// still has in flight — after a successful finish there are none; a killed
// or failed worker leaves them behind its pipelined inserters. Whoever
// waits for the worker to be done (KillTask, ahead of a recovery's Discard
// of the task's outputs) then knows nothing of it can still land in a bag.
func (tc *TaskCtx) close() {
	for _, in := range tc.ins {
		in.CloseConsumer()
	}
	for _, ins := range tc.inserters {
		if ins != nil {
			ins.Close()
		}
	}
	for _, w := range tc.shuffles {
		w.Drain()
	}
}

// worker is one executing task instance (original or clone) on a compute
// node.
type worker struct {
	bp     *Blueprint
	tc     *TaskCtx
	cancel context.CancelFunc
	done   chan struct{}
	gate   chan struct{}

	released atomic.Bool
	killed   atomic.Bool
	err      error
}

// runWorker executes the blueprint's function and reports the outcome.
func runWorker(ctx context.Context, bp *Blueprint, store *bag.Store, app *App) *worker {
	w := runWorkerGated(ctx, bp, store, app, nil, "")
	w.release()
	return w
}

// runWorkerGated prepares a worker whose goroutine blocks before touching
// any bag until release (or kill) is called. The gate lets a task manager
// register the worker — making it visible to the master's KillTask — and
// re-validate the blueprint's epoch before the worker consumes its first
// chunk. Without it, a stale-epoch blueprint claimed during failure
// recovery could start consuming a freshly rewound input bag in the gap
// between the recovery's kill sweep and the node noticing the staleness.
func runWorkerGated(ctx context.Context, bp *Blueprint, store *bag.Store, app *App, o *obs.Observer, job string) *worker {
	wctx, cancel := context.WithCancel(ctx)
	w := &worker{
		bp:     bp,
		tc:     newTaskCtx(wctx, bp, store, app, o, job),
		cancel: cancel,
		done:   make(chan struct{}),
		gate:   make(chan struct{}),
	}
	go func() {
		defer close(w.done)
		defer w.tc.close()
		select {
		case <-w.gate:
		case <-wctx.Done():
			w.err = wctx.Err()
			return
		}
		now := time.Now().UnixNano()
		w.tc.spanStartNS = now
		// Queue wait: blueprint publication to worker start. Master and
		// node clocks are shared in-process; a recovered blueprint
		// without a stamp contributes zero.
		if bp.ScheduledAt > 0 && now > bp.ScheduledAt {
			w.tc.queueNS = now - bp.ScheduledAt
		}
		defer func() { w.tc.spanEndNS = time.Now().UnixNano() }()
		spec := app.Task(bp.Spec)
		if spec == nil {
			w.err = fmt.Errorf("core: unknown task spec %q", bp.Spec)
			return
		}
		fn := spec.Run
		if bp.Kind == KindMerge {
			fn = spec.Merge
		}
		if fn == nil {
			w.err = fmt.Errorf("core: task %q has no function for kind %d", bp.Spec, bp.Kind)
			return
		}
		if err := fn(w.tc); err != nil {
			w.err = err
			return
		}
		// Finalize is the end-of-task flush minus the inserter waits and
		// shuffle flushes inside it, which stay attributed to the
		// shuffle/write phase.
		preW, preS := w.tc.spans.writeNS, w.tc.spans.shuffleNS
		fstart := time.Now()
		w.err = w.tc.finish()
		fin := time.Since(fstart).Nanoseconds()
		fin -= (w.tc.spans.writeNS - preW) + (w.tc.spans.shuffleNS - preS)
		if fin > 0 {
			w.tc.spans.finalizeNS += fin
		}
	}()
	return w
}

// release opens the gate: the worker begins executing its task function.
func (w *worker) release() {
	if w.released.CompareAndSwap(false, true) {
		close(w.gate)
	}
}

// kill cancels the worker without reporting completion (used during
// failure recovery to terminate clones of a failed task).
func (w *worker) kill() {
	w.killed.Store(true)
	w.cancel()
}
