package core

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/bag"
	"repro/internal/ctrl"
	"repro/internal/obs"
	"repro/internal/sched"
)

// masterAPI is the control-plane interface task managers use to reach an
// application master. In the embedded engine this is the in-process
// master; the data plane (work bags, data bags) goes through storage
// regardless.
type masterAPI interface {
	// overload signals that the node is overloaded while running bp and
	// would like the task cloned (§4.2: "each compute node can signal the
	// application master that it is overloaded").
	overload(node string, bp *Blueprint, busyFrac float64)
	// heartbeat reports node liveness.
	heartbeat(node string)
	// nudge wakes the master's event-driven control loop after the node
	// inserted a work-bag record, naming the bag it went to (task started:
	// ctrl.CauseRunning, completed: ctrl.CauseDone), so the master scans
	// that bag immediately instead of on its fallback timer. Advisory: a
	// lost nudge costs at most that timer.
	nudge(bag ctrl.Cause)
	// staleBlueprint reports whether the blueprint's epoch predates the
	// master's current epoch for the task — a leftover of a failure
	// recovery that must not run (its inputs were rewound and its outputs
	// discarded at a newer epoch). Nodes check at claim time and again
	// after registering the worker, so a recovery sweeping between the
	// two checks can never leave a stale worker running.
	staleBlueprint(bp *Blueprint) bool
}

// binding connects a compute node to one job: the job's application
// graph, work bags, and (repointable, for master recovery) master.
type binding struct {
	job   string
	app   *App
	wb    *workBags
	ready *bag.Bag

	mu     sync.RWMutex
	master masterAPI

	// claim orders this binding's polls of the ready bag against its
	// Detach: once Detach returns no poll through the binding is in flight
	// and none will start. A successor job that reuses the name — and so
	// the ready bag — can therefore never lose a blueprint to it.
	claim    sync.Mutex
	detached bool
}

// pollReady removes one blueprint from the job's ready bag; a detached
// binding finds none.
func (b *binding) pollReady(ctx context.Context) (*Blueprint, error) {
	b.claim.Lock()
	defer b.claim.Unlock()
	if b.detached {
		return nil, bag.ErrAgain
	}
	return b.wb.pollReady(ctx, b.ready)
}

func (b *binding) getMaster() masterAPI {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.master
}

func (b *binding) setMaster(m masterAPI) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.master = m
}

// workerEntry tracks one running worker and the job binding it belongs
// to (completion reports and overload signals go to the owning master).
type workerEntry struct {
	w *worker
	b *binding
}

// ComputeNode is a Hurricane compute node: it runs a task manager that
// removes blueprints from the ready work bags of every job bound to it
// and executes them on local worker slots (§3.1), woken by the cluster's
// wake rather than a timer (scheduleLoop). With several jobs bound, claims
// are gated by the scheduler's slot leases: each claimed slot is billed to
// the owning job, and claim order follows fair-share priority so freed
// slots flow to the job furthest below its share.
type ComputeNode struct {
	name   string
	slots  int
	store  *bag.Store
	cfg    NodeConfig
	obs    *obs.Observer
	leases *sched.Leases
	wake   *wake // the cluster's; see scheduleLoop
	// fallbackClaims: claims the fallback sweep made with no wake raised.
	fallbackClaims *obs.Counter

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	bindings map[string]*binding
	rot      int                     // rotation offset for unarbitrated claim order
	workers  map[string]*workerEntry // keyed by job + "/" + blueprint ID
	crashed  bool
	draining bool
	// sweep is held while the schedule loop is between deciding to claim
	// (not draining, a slot free) and having either registered the claimed
	// blueprint's worker or given the claim up: a blueprint it has already
	// removed from a ready bag exists nowhere else, so Stop waits this out
	// like a running worker.
	sweep sync.Mutex
}

// claimFallback is how long a lost wake can go unnoticed: a blocked claim
// loop sweeps the ready bags this often regardless (the master's idle timer
// is of the same order). A variable only so that tests can stretch it.
var claimFallback = 50 * time.Millisecond

// NodeConfig tunes a compute node's monitoring loop (dispatch has no knob).
// The node ticks once per MonitorInterval/2: each tick heartbeats every
// bound job's master and asks it to clone the task of each worker busy
// above OverloadThreshold since the previous tick.
type NodeConfig struct {
	// MonitorInterval is twice the node's tick (default 2s, so a 1s
	// tick). The paper sends clone messages at least 2 seconds apart;
	// tests shrink this.
	MonitorInterval time.Duration
	// OverloadThreshold is the busy fraction above which a worker is
	// considered CPU-bound and a clone request is sent.
	OverloadThreshold float64
}

func (c *NodeConfig) fill() {
	if c.MonitorInterval <= 0 {
		c.MonitorInterval = 2 * time.Second // paper default
	}
	if c.OverloadThreshold <= 0 {
		c.OverloadThreshold = 0.75
	}
}

// beat is the node's tick: the period at which it heartbeats.
func (c NodeConfig) beat() time.Duration {
	if p := c.MonitorInterval / 2; p > 0 {
		return p
	}
	return time.Second
}

// newComputeNode creates a compute node with the given number of worker
// slots. Jobs are connected with Attach; call Start to begin executing
// tasks. leases gates claims by the scheduler's fair-share slot leasing;
// wk is the wake of the cluster the node serves; o is the cluster observer
// its workers report shuffle-edge byte and record counts into (nil
// disables worker-side metrics).
func newComputeNode(name string, slots int, store *bag.Store, leases *sched.Leases, wk *wake, o *obs.Observer, cfg NodeConfig) *ComputeNode {
	cfg.fill()
	return &ComputeNode{
		name:           name,
		slots:          slots,
		store:          store,
		cfg:            cfg,
		obs:            o,
		leases:         leases,
		wake:           wk,
		fallbackClaims: o.Counter("hurricane_core_fallback_claims_total"),
		bindings:       make(map[string]*binding),
		workers:        make(map[string]*workerEntry),
	}
}

// Attach binds a job to the node: its ready bag joins the claim rotation
// and its master receives this node's heartbeats and overload signals.
func (n *ComputeNode) Attach(job string, app *App, wb *workBags, master masterAPI) {
	b := &binding{job: job, app: app, wb: wb, ready: n.store.Bag(wb.readyName()), master: master}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.bindings[job] = b
}

// Detach unbinds a completed job, waiting out a poll of its ready bag
// that is in flight (a storage round trip: call it without the cluster
// lock). Workers of the job still running are left to finish; their
// completion reports go to the captured binding.
func (n *ComputeNode) Detach(job string) {
	n.mu.Lock()
	b := n.bindings[job]
	delete(n.bindings, job)
	n.mu.Unlock()
	if b != nil {
		b.claim.Lock()
		b.detached = true
		b.claim.Unlock()
	}
}

// setMaster repoints a job's control plane at a new master (master
// recovery).
func (n *ComputeNode) setMaster(job string, m masterAPI) {
	n.mu.Lock()
	b := n.bindings[job]
	n.mu.Unlock()
	if b != nil {
		b.setMaster(m)
	}
}

// Name returns the node name.
func (n *ComputeNode) Name() string { return n.name }

// Start launches the node's scheduling, monitoring, and heartbeat loops.
func (n *ComputeNode) Start(parent context.Context) {
	n.ctx, n.cancel = context.WithCancel(parent)
	n.wg.Add(2)
	go n.scheduleLoop()
	go n.monitorLoop()
}

// Stop terminates the node gracefully: it stops claiming tasks and
// returns once its running workers have completed (§3.4: "a compute node
// is removed by stopping its task manager after its current workers have
// completed").
func (n *ComputeNode) Stop() {
	n.BeginDrain()
	n.sweep.Lock() // a claim in flight registers its worker; none starts after
	n.sweep.Unlock()
	// Every worker's exit raises the wake, taken before each look.
	for exited := n.wake.wait(); n.Running() > 0; exited = n.wake.wait() {
		<-exited
	}
	if n.cancel != nil {
		n.cancel()
	}
	n.wg.Wait()
}

// BeginDrain marks the node draining — it claims no further blueprints —
// without waiting for running workers. The cluster marks a node draining
// before removing it so slot accounting excludes it immediately, while
// the node stays visible to recovery kill sweeps until fully stopped.
func (n *ComputeNode) BeginDrain() {
	n.mu.Lock()
	n.draining = true
	n.mu.Unlock()
}

// Draining reports whether the node has stopped claiming blueprints.
func (n *ComputeNode) Draining() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.draining
}

// Crash simulates a compute-node failure: all workers are killed
// immediately and the node stops heartbeating, so the masters will
// detect the failure and restart the affected tasks.
func (n *ComputeNode) Crash() {
	n.mu.Lock()
	n.crashed = true
	workers := make([]*workerEntry, 0, len(n.workers))
	for _, we := range n.workers {
		workers = append(workers, we)
	}
	n.mu.Unlock()
	for _, we := range workers {
		we.w.kill()
	}
	if n.cancel != nil {
		n.cancel()
	}
	n.wg.Wait()
}

// Running reports the number of workers currently executing.
func (n *ComputeNode) Running() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.workers)
}

// Slots returns the node's worker slot count.
func (n *ComputeNode) Slots() int { return n.slots }

// KillTask kills local workers of the given job whose blueprint matches
// the given spec and epoch, waiting until they have fully stopped. A
// master invokes this during failure recovery to terminate all running
// clones of a failed task (§4.4); the wait guarantees no straggling
// worker touches the task's bags after the master starts scrubbing them.
// Task names are only unique within a job, so the kill is job-scoped.
func (n *ComputeNode) KillTask(job, spec string, epoch int) {
	n.mu.Lock()
	var victims []*worker
	for _, we := range n.workers {
		if we.b.job == job && we.w.bp.Spec == spec && we.w.bp.Epoch == epoch {
			victims = append(victims, we.w)
		}
	}
	n.mu.Unlock()
	for _, w := range victims {
		w.kill()
	}
	for _, w := range victims {
		<-w.done
	}
}

// KillJob kills every local worker of the named job, waiting until they
// have fully stopped. The cluster reaps a failed job's workers this way
// — e.g. after its submission context was cancelled — so their slots
// return to the pool even though no recovery will ever reschedule them.
func (n *ComputeNode) KillJob(job string) {
	n.mu.Lock()
	var victims []*worker
	for _, we := range n.workers {
		if we.b.job == job {
			victims = append(victims, we.w)
		}
	}
	n.mu.Unlock()
	for _, w := range victims {
		w.kill()
	}
	for _, w := range victims {
		<-w.done
	}
}

// Yield asks the identified worker to stop consuming at its next chunk
// boundary and complete normally (fair-share clone preemption). It
// reports whether the worker was found.
func (n *ComputeNode) Yield(job, bpID string) bool {
	n.mu.Lock()
	we := n.workers[job+"/"+bpID]
	n.mu.Unlock()
	if we == nil {
		return false
	}
	we.w.tc.requestYield()
	return true
}

// pickBindings snapshots the node's bindings in claim order: fair-share
// priority (furthest below share first) when leasing is active, a
// per-sweep rotation otherwise so no job is structurally favored.
func (n *ComputeNode) pickBindings() []*binding {
	n.mu.Lock()
	ids := make([]string, 0, len(n.bindings))
	for id := range n.bindings {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	rot := n.rot
	n.rot++
	bs := make([]*binding, 0, len(ids))
	if len(ids) > 0 {
		if n.leases.FairShare() {
			prio := n.leases.Priorities(ids)
			sort.SliceStable(ids, func(a, b int) bool {
				return prio[ids[a]] < prio[ids[b]]
			})
			for _, id := range ids {
				bs = append(bs, n.bindings[id])
			}
		} else {
			for i := range ids {
				bs = append(bs, n.bindings[ids[(i+rot)%len(ids)]])
			}
		}
	}
	n.mu.Unlock()
	return bs
}

// scheduleLoop claims blueprints while a slot is free and a sweep finds
// one, then blocks until the wake is raised. It takes the wake before it
// sweeps, so an event landing mid-sweep sends it round again: nothing
// sleeps between "slot free and blueprint ready" and startWorker. The
// fallback timer only bounds what a lost wake can cost.
func (n *ComputeNode) scheduleLoop() {
	defer n.wg.Done()
	fallback := time.NewTimer(claimFallback)
	defer fallback.Stop()
	for n.ctx.Err() == nil {
		woken := n.wake.wait()
		if n.claimOne() {
			continue
		}
		fallback.Reset(claimFallback)
		select {
		case <-woken:
		case <-n.ctx.Done():
		case <-fallback.C:
			if n.claimOne() {
				select {
				case <-woken: // the wake was on its way
				default:
					n.fallbackClaims.Inc()
				}
			}
		}
	}
}

// claimOne sweeps the bound jobs' ready bags once if a slot is free,
// reporting whether it claimed a blueprint.
func (n *ComputeNode) claimOne() bool {
	n.sweep.Lock()
	defer n.sweep.Unlock()
	n.mu.Lock()
	// A crashed node claims nothing, though its killed workers' exits wake it.
	free := !n.crashed && !n.draining && len(n.workers) < n.slots
	n.mu.Unlock()
	if !free {
		return false
	}
	for _, b := range n.pickBindings() {
		if !n.leases.Acquire(b.job) {
			continue // over lease with a starved neighbor
		}
		bp, err := b.pollReady(n.ctx)
		if err != nil {
			// ErrAgain: nothing ready. ErrEmpty cannot normally happen
			// (the ready bag is never sealed); treat both as idle.
			n.leases.Release(b.job)
			continue
		}
		if n.leases.MoveDemand(b.job, -1, sched.Delta) {
			n.wake.raise() // the job stopped being starved: a denied claim may pass now
		}
		n.startWorker(b, bp)
		return true
	}
	return false
}

// startWorker runs a claimed blueprint. It owns the job's lease token:
// every exit path either hands it to the worker's completion goroutine
// or releases it.
func (n *ComputeNode) startWorker(b *binding, bp *Blueprint) {
	release := func() { n.leases.Release(b.job) }
	master := b.getMaster()
	if master.staleBlueprint(bp) {
		release()
		return // abandoned epoch: recovery already rescheduled the task
	}
	// Record the start before executing so the master can find the task
	// during failure recovery.
	if err := b.wb.recordStart(n.ctx, bp, n.name); err != nil {
		release()
		return // node is shutting down or storage unreachable
	}
	// Register the gated worker before it consumes anything, then
	// re-validate: (a) the epoch — either a concurrent recovery's
	// KillTask sees the registered worker, or the recovery finished
	// first and the re-check observes the bumped epoch; (b) the binding
	// — a failed job's finalize detaches the binding before its KillJob
	// sweep, so either the sweep sees the registered worker or this
	// re-check observes the detach. Both orders kill the worker before
	// it touches the job's bags.
	w := runWorkerGated(n.ctx, bp, n.store, b.app, n.obs, b.job)
	key := b.job + "/" + bp.ID
	n.mu.Lock()
	n.workers[key] = &workerEntry{w: w, b: b}
	stillBound := n.bindings[b.job] == b
	n.mu.Unlock()
	if master.staleBlueprint(bp) || !stillBound {
		w.kill()
		n.mu.Lock()
		delete(n.workers, key)
		n.mu.Unlock()
		release()
		return
	}
	w.release()
	master.nudge(ctrl.CauseRunning)

	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		<-w.done
		release()
		n.mu.Lock()
		delete(n.workers, key)
		crashed := n.crashed
		n.mu.Unlock()
		n.wake.raise() // a slot and a lease token are free
		if w.killed.Load() || crashed {
			// Killed workers report nothing: the master already decided
			// their fate.
			return
		}
		// Use a fresh context: the node context may be cancelled by a
		// graceful Stop racing with completion.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		b.wb.recordDone(ctx, bp, n.name, w.err, w.tc.spanSnapshot(), w.tc.edgeStats())
		b.getMaster().nudge(ctrl.CauseDone)
	}()
}

// monitorLoop heartbeats every bound job's master and reports overloaded
// workers once per MonitorInterval/2, on one ticker and two slices it
// reuses, so a tick creates no timer and, at a steady worker and job
// count, no slice.
func (n *ComputeNode) monitorLoop() {
	defer n.wg.Done()
	tick := time.NewTicker(n.cfg.beat())
	defer tick.Stop()
	var snapshot []*workerEntry
	var masters []masterAPI
	for {
		select {
		case <-tick.C:
		case <-n.ctx.Done():
			return
		}
		n.mu.Lock()
		snapshot = snapshot[:0]
		for _, we := range n.workers {
			snapshot = append(snapshot, we)
		}
		masters = masters[:0]
		for _, b := range n.bindings {
			masters = append(masters, b.getMaster())
		}
		n.mu.Unlock()
		for _, m := range masters {
			m.heartbeat(n.name)
		}

		// Overload detection: a worker that spent most of the interval
		// computing (rather than waiting on storage) is CPU-bound; ask
		// the owning job's master to clone its task. Clone messages are
		// rate-limited by the master per task.
		for _, we := range snapshot {
			busy := we.w.tc.loadSnapshot()
			if busy >= n.cfg.OverloadThreshold {
				we.b.getMaster().overload(n.name, we.w.bp, busy)
			}
		}
		// Drop the references: a finished job's master and workers must
		// not stay reachable from an idle node's scratch.
		clear(snapshot)
		clear(masters)
	}
}

// sleepCtx sleeps for d, returning false if the context was cancelled.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
