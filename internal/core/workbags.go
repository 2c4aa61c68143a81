package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/bag"
	"repro/internal/obs"
)

// workBags is the distributed task-queuing interface (§4.1): three
// unordered bags — ready, running, done — stored on the storage nodes like
// any data bag. Compute nodes remove blueprints from the ready bag to
// create workers; they insert start events into the running bag and
// completion events into the done bag. The master never talks to compute
// nodes to schedule work: it only inserts into ready and scans done, so
// scheduling has no single point of control in the data path.
//
// The bags carry all scheduling state — what to run, what ran — and are
// what a recovered master replays. The cluster's wake carries none: it
// tells the task managers to look now rather than on a timer, and losing
// one costs latency (their fallback sweep), never correctness.
type workBags struct {
	store *bag.Store // nil where only the names are used
	app   string
}

func newWorkBags(store *bag.Store, app string) *workBags {
	return &workBags{store: store, app: app}
}

// wake broadcasts "look now" to everything that waits on the cluster's
// scheduling state: the compute nodes' claim loops and ComputeNode.Stop. A
// waiter takes the current generation with wait *before* it reads the state
// a raise announces, so a raise landing between its look and its block is
// never lost. One wake serves the whole cluster: raised when a master
// pushes a blueprint, when a worker exits (its slot and its job's lease
// token are free), when a master seeds its job's demand or a claim ends a
// job's starvation, and when fair shares or a job's bindings change. The scheduler's preemption
// pass waits on it too, and raises nothing. A raise
// costs one ready-bag remove per bound job (per storage slot) on every node
// with an idle slot, and none on a busy one: fewer than the old 5 ms poll's
// below ~200 raises/s. Measured at 16 idle nodes x 8 bound jobs x 1 slot:
// exactly the product, 128 removes per raise (TestBroadcastWakeCost).
type wake struct{ gen atomic.Pointer[chan struct{}] }

func newWake() *wake {
	w, first := new(wake), make(chan struct{})
	w.gen.Store(&first)
	return w
}

// wait returns the channel the next raise closes.
func (w *wake) wait() <-chan struct{} { return *w.gen.Load() }

// raise wakes every current waiter.
func (w *wake) raise() {
	next := make(chan struct{})
	close(*w.gen.Swap(&next))
}

func (w *workBags) readyName() string   { return w.app + "!ready" }
func (w *workBags) runningName() string { return w.app + "!running" }
func (w *workBags) doneName() string    { return w.app + "!done" }

// pushReady schedules a blueprint by inserting it into the ready bag.
func (w *workBags) pushReady(ctx context.Context, bp *Blueprint) error {
	h := w.store.Bag(w.readyName())
	if err := h.Insert(ctx, bp.Encode()); err != nil {
		return fmt.Errorf("core: scheduling %s: %w", bp.ID, err)
	}
	return nil
}

// pollReady removes one blueprint from the ready bag, returning
// bag.ErrAgain when none is available. Each call makes one sweep; task
// managers call it from their claim loop, once per wake.
func (w *workBags) pollReady(ctx context.Context, h *bag.Bag) (*Blueprint, error) {
	c, err := h.Poll(ctx)
	if err != nil {
		return nil, err
	}
	return DecodeBlueprint(c)
}

// recordStart logs that a node began executing a blueprint.
func (w *workBags) recordStart(ctx context.Context, bp *Blueprint, node string) error {
	e := event{TaskID: bp.ID, Spec: bp.Spec, Node: node, Epoch: bp.Epoch,
		Worker: bp.Worker, Merge: bp.Kind == KindMerge}
	return w.store.Bag(w.runningName()).Insert(ctx, e.encode())
}

// recordDone logs a blueprint's completion (or failure). spans carries
// the worker's profiler phase accounting to the master (nil when span
// profiling is off — the done record then omits the field entirely).
func (w *workBags) recordDone(ctx context.Context, bp *Blueprint, node string, runErr error, spans *obs.TaskSpans) error {
	e := event{TaskID: bp.ID, Spec: bp.Spec, Node: node, Epoch: bp.Epoch,
		Worker: bp.Worker, Merge: bp.Kind == KindMerge, OK: runErr == nil, Spans: spans}
	if runErr != nil {
		e.Err = runErr.Error()
	}
	return w.store.Bag(w.doneName()).Insert(ctx, e.encode())
}
