package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/ctrl"
	"repro/internal/obs"
	"repro/internal/shuffle"
)

// ClusterControl is the interface through which the master exerts
// control-plane authority over compute nodes: killing a failed task's
// clones and checking for idle capacity before cloning.
type ClusterControl interface {
	// KillTask terminates all running workers of (spec, epoch) on every
	// live compute node.
	KillTask(spec string, epoch int)
	// FreeSlots reports the number of idle worker slots cluster-wide.
	FreeSlots() int
	// TotalSlots reports the total number of worker slots cluster-wide.
	TotalSlots() int
	// YieldWorker asks the named compute node to preempt the worker
	// identified by blueprint ID at its next chunk boundary (fair-share
	// clone preemption). It reports whether the worker was found.
	YieldWorker(node, bpID string) bool
}

// LeaseInfo is optionally implemented by a ClusterControl in a multi-job
// cluster: LeaseSlots reports the job's current fair-share mitigation
// budget, which the master forwards into telemetry snapshots so
// ctrl.Arbitrate caps cloning at the lease.
type LeaseInfo interface {
	LeaseSlots() int
}

// MasterConfig tunes the application master.
type MasterConfig struct {
	// Job identifies the owning job in a multi-job cluster; it tags
	// telemetry snapshots (ctrl.Snapshot.Job) and scheduler accounting.
	// Empty defaults to the application name.
	Job string

	// CloneInterval is the minimum gap between successive clones of one
	// task. The paper sends clone messages at least 2 seconds apart.
	CloneInterval time.Duration
	// FailTimeout is the heartbeat silence after which a compute node is
	// declared dead. Zero disables failure detection.
	FailTimeout time.Duration
	// StorageBandwidth (bytes/s) estimates the I/O rate used for the
	// T_IO term of the cloning heuristic (Eq. 2). math.Inf(1) makes Eq. 2
	// accept every clone whose input has bytes left.
	StorageBandwidth float64
	// SpeculativeCloning does nothing: only an overload signal triggers a
	// clone. The field stays because the frozen benchmark sets it.
	SpeculativeCloning bool

	// ---- skew-aware shuffle (internal/shuffle) ----

	// SplitInterval is the edge-stats cadence: the minimum gap between
	// successive merged-sketch fetches of one shuffle edge; producers
	// report statistics up to four times per interval (default
	// CloneInterval).
	SplitInterval time.Duration

	// Policies selects the mitigation strategies the control plane runs
	// for this job. Nil installs the default set (DefaultPolicies); an
	// explicit empty slice disables all mitigation. Custom policies
	// implement ctrl.Policy; whenever a chain is installed its snapshots
	// carry the merged sketch of every active shuffle edge, fetched once
	// per SplitInterval.
	Policies []ctrl.Policy

	// Seeds are warm-start partition maps for the job's partitioned
	// edges, keyed by this master's (namespaced) bag names. The
	// scheduler fills it from JobConfig.Seeds; the master publishes the
	// maps from its own goroutine before its first scheduling pass, so
	// producers can never observe an unseeded edge. Best-effort: a
	// failed publish costs a cold start, not the job.
	Seeds map[string]*shuffle.PartitionMap

	// Obs receives the master's metrics (labeled by job) and decision
	// trace events. The cluster injects its shared observer here; nil
	// disables instrumentation (every update site degrades to a nil
	// check).
	Obs *obs.Observer

	// TraceID is the submitter-minted causal trace ID (JobConfig.TraceID).
	// The master registers it with the trace ring at start so every event
	// of this job — and its execution profile — carries the ID.
	TraceID string
}

func (c *MasterConfig) fill() {
	if c.CloneInterval <= 0 {
		c.CloneInterval = 2 * time.Second // paper default
	}
	if c.StorageBandwidth <= 0 {
		c.StorageBandwidth = 1 << 30 // 1 GB/s
	}
	if c.SplitInterval <= 0 {
		c.SplitInterval = c.CloneInterval
	}
}

// DefaultPolicies is the mitigation set a nil MasterConfig.Policies
// installs: the paper's cloning on overload signals, tuned by cfg's
// CloneInterval and StorageBandwidth. Callers composing custom policy
// chains can start from it.
func DefaultPolicies(cfg MasterConfig) []ctrl.Policy {
	cfg.fill()
	return []ctrl.Policy{&ctrl.ClonePolicy{Cfg: ctrl.Config{
		CloneInterval:    cfg.CloneInterval,
		StorageBandwidth: cfg.StorageBandwidth,
	}}}
}

// taskState is the master's view of one task of the execution graph.
type taskState struct {
	spec *TaskSpec

	epoch       int
	scheduled   bool
	workers     int          // worker indices handed out at this epoch
	doneWorkers map[int]bool // worker indices completed at this epoch
	mergeSched  bool
	mergeDone   bool
	renamed     bool
	finished    bool

	startedAt time.Time
	lastClone time.Time

	// running maps blueprint ID -> node, for failure recovery.
	running map[string]string

	// leaf maps each worker index of a partitioned consumer to the physical
	// partition bag it pulls from (its own for a leaf's owner, the one its
	// clone action named for a clone). Learned from the ready bag's
	// blueprints, this master's and a predecessor's alike.
	leaf map[int]string
	// yielding marks workers asked to yield whose completion has not
	// been observed yet, so repeated preemption rounds do not over-yield.
	yielding map[int]bool
}

func (st *taskState) reset(epoch int) {
	st.epoch = epoch
	st.scheduled = false
	st.workers = 0
	st.doneWorkers = make(map[int]bool)
	st.mergeSched = false
	st.mergeDone = false
	st.renamed = false
	st.finished = false
	st.running = make(map[string]string)
	st.leaf = make(map[int]string)
	st.yielding = make(map[int]bool)
}

// partials returns the partial-output bag names for the task's current
// epoch (only meaningful for tasks with a merge procedure).
func (st *taskState) partials() []string {
	out := make([]string, 0, st.workers)
	for w := 0; w < st.workers; w++ {
		out = append(out, partialBag(st.spec.Outputs[0], w, st.epoch))
	}
	return out
}

type nodeState struct {
	lastBeat time.Time
	running  int
	slots    int
	dead     bool
}

// Master is the application master (§3.1): it drives the application's
// computation, schedules tasks as their input bags become ready, injects
// merge tasks, and recovers from compute-node failures. All of its durable
// state lives in the work bags, so a crashed master recovers by replaying
// them (§4.4).
//
// Skew mitigation is delegated to the control plane (internal/ctrl): the
// master forwards telemetry into the hub, evaluates the configured
// policies against the hub's versioned snapshots, and applies the
// surviving Actions transactionally. It makes no mitigation decisions of
// its own.
type Master struct {
	app     *App
	store   *bag.Store
	wb      *workBags
	cfg     MasterConfig
	control ClusterControl

	hub      *ctrl.Hub
	policies []ctrl.Policy

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// stopped marks a deliberate Stop (crash simulation, recovery swap,
	// shutdown) as opposed to the caller's job context being cancelled.
	// A stopped master exits silently — a successor replays the work
	// bags; a cancelled job context is a job failure that must release
	// the job's scheduler state.
	stopped atomic.Bool

	mu         sync.Mutex
	tasks      map[string]*taskState
	sealed     map[string]bool
	nodes      map[string]*nodeState
	seenEvents map[string]bool // done-event dedup across rescans
	finished   int
	jobErr     error
	doneCh     chan struct{}
	doneOnce   sync.Once

	recoverCh chan string // dead compute nodes awaiting recovery

	records []recordBag // ready, running, done

	// policyAt and rescanAt: when the next timed control pass and the next
	// fallback rescan are due (loop goroutine only; the first tick does both).
	policyAt, rescanAt time.Time

	// edges tracks the app's partitioned shuffle bags (core/shuffle.go).
	// Accessed only from the master loop goroutine after newMaster, except
	// for pmap which is swapped under m.mu.
	edges map[string]*shuffleEdge

	// counters for observability and tests
	clones       int
	rejects      int
	recoveries   int
	mergeTasks   int
	renameAdopts int
	yields       int

	// spans accumulates per-task profiler phase accounting carried on
	// done-bag events (guarded by m.mu, deduped by seenEvents like all
	// done evidence). profStart/profEnd bound the job wall clock for
	// Profile(); profEnd stays zero while the job is running.
	spans     []obs.TaskSpans
	profStart time.Time
	profEnd   time.Time

	// obs is the shared observer (nil-safe) plus this job's cached
	// metric handles; events carry cfg.Job.
	obs masterObs
}

// masterObs caches the master's per-job metric handles so the control
// loop never pays a registry lookup. All handles are nil-safe no-ops
// when no observer is installed.
type masterObs struct {
	o   *obs.Observer
	job string

	clones     *obs.Counter
	rejects    *obs.Counter
	yields     *obs.Counter
	scheduled  *obs.Counter
	finished   *obs.Counter
	recoveries *obs.Counter
	taskSpan   *obs.Histogram

	proposed   *obs.Counter
	applied    *obs.Counter
	suppressed *obs.Counter
}

func newMasterObs(o *obs.Observer, job string) masterObs {
	l := []string{"job", job}
	return masterObs{
		o:   o,
		job: job,

		clones:     o.Counter("hurricane_core_clones_total", l...),
		rejects:    o.Counter("hurricane_core_clone_rejects_total", l...),
		yields:     o.Counter("hurricane_core_yields_total", l...),
		scheduled:  o.Counter("hurricane_core_tasks_scheduled_total", l...),
		finished:   o.Counter("hurricane_core_tasks_finished_total", l...),
		recoveries: o.Counter("hurricane_core_recoveries_total", l...),
		taskSpan:   o.Histogram("hurricane_core_task_span_ns", l...),

		proposed:   o.Counter("hurricane_ctrl_actions_proposed_total", l...),
		applied:    o.Counter("hurricane_ctrl_actions_applied_total", l...),
		suppressed: o.Counter("hurricane_ctrl_actions_suppressed_total", l...),
	}
}

// emit appends one trace event attributed to this master's job.
func (mo *masterObs) emit(typ obs.EventType, subject, detail string) {
	mo.o.Emit(typ, mo.job, subject, detail)
}

// newMaster creates a master for the app, raising the cluster's wake wk for
// each blueprint it pushes. The app is validated, its source bags sealed.
func newMaster(app *App, store *bag.Store, control ClusterControl, wk *wake, cfg MasterConfig) *Master {
	cfg.fill()
	if cfg.Job == "" {
		cfg.Job = app.Name()
	}
	m := &Master{
		app:        app,
		store:      store,
		wb:         newWorkBags(store, app.Name(), wk),
		cfg:        cfg,
		control:    control,
		tasks:      make(map[string]*taskState),
		sealed:     make(map[string]bool),
		nodes:      make(map[string]*nodeState),
		seenEvents: make(map[string]bool),
		doneCh:     make(chan struct{}),
		recoverCh:  make(chan string, 64),
	}
	for _, name := range app.Tasks() {
		st := &taskState{spec: app.Task(name)}
		st.reset(0)
		m.tasks[name] = st
	}
	for _, b := range app.sourceBags() {
		m.sealed[b] = true
	}
	m.edges = newShuffleEdges(app)
	m.obs = newMasterObs(cfg.Obs, cfg.Job)
	scans := func(label string) *obs.Counter {
		return cfg.Obs.Counter("hurricane_core_record_scans_total", "job", cfg.Job, "bag", label)
	}
	m.records = []recordBag{
		{ctrl.CauseReady, store.Scanner(m.wb.readyName()), m.absorbReady, scans("ready")},
		{ctrl.CauseRunning, store.Scanner(m.wb.runningName()), m.absorbRunning, scans("running")},
		{ctrl.CauseDone, store.Scanner(m.wb.doneName()), m.absorbDone, scans("done")},
	}
	m.policies = cfg.Policies
	if m.policies == nil {
		m.policies = DefaultPolicies(cfg)
	}
	m.hub = ctrl.NewHub(ctrl.HubConfig{
		FetchStats:    store.FetchSketch,
		FetchInterval: cfg.SplitInterval,
		SampleBag: func(ctx context.Context, bagName string) (*ctrl.BagTel, error) {
			stats, err := store.Sample(ctx, bagName)
			if err != nil {
				return nil, err
			}
			return &ctrl.BagTel{ReadBytes: stats.ReadBytes, RemainingBytes: stats.RemainingBytes()}, nil
		},
		Obs: cfg.Obs,
		Job: cfg.Job,
	})
	return m
}

// WorkBags exposes the app's work-bag interface (used by compute nodes).
func (m *Master) WorkBags() *workBags { return m.wb }

// Start launches the master's control loop.
func (m *Master) Start(parent context.Context) {
	m.mu.Lock()
	m.profStart = time.Now()
	m.mu.Unlock()
	if m.cfg.TraceID != "" {
		m.cfg.Obs.Tracer().SetJobTrace(m.cfg.Job, m.cfg.TraceID)
	}
	m.ctx, m.cancel = context.WithCancel(parent)
	m.wg.Add(1)
	go m.loop()
}

// Stop halts the master without completing the job (e.g. to simulate a
// master crash; compute and storage nodes keep running).
func (m *Master) Stop() {
	m.stopped.Store(true)
	if m.cancel != nil {
		m.cancel()
	}
	m.wg.Wait()
}

// Done returns a channel closed when the application completes (or fails).
func (m *Master) Done() <-chan struct{} { return m.doneCh }

// Err returns the job error, if any. Valid after Done is closed.
func (m *Master) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobErr
}

// Stats reports master activity counters.
type MasterStats struct {
	Clones        int // clones created
	CloneRejects  int // clone requests rejected (no slot or Eq. 2)
	MergeTasks    int // merge tasks injected
	RenameAdopts  int // sole-worker outputs adopted by rename
	Recoveries    int // compute-node failure recoveries
	Yields        int // clone workers preempted by fair-share leasing
	TasksFinished int
	// Splits and Isolations are always 0: the master revises no partition
	// map at runtime. They stay because the frozen benchmark reads them.
	Splits, Isolations int
}

// ResealAll re-issues seal operations for every bag the master believes
// sealed. The cluster calls this after adding a storage node (§3.4) so
// the new node's (empty) share of already-sealed bags is marked sealed —
// otherwise consumers created with the enlarged cluster view would wait
// forever on the new node's unsealed empty slot.
func (m *Master) ResealAll(ctx context.Context) error {
	m.mu.Lock()
	var names []string
	for b, ok := range m.sealed {
		if ok {
			names = append(names, b)
		}
	}
	m.mu.Unlock()
	for _, b := range names {
		for _, phys := range m.physicalBags(b) {
			if err := m.store.Seal(ctx, phys); err != nil {
				return err
			}
		}
	}
	return nil
}

// physicalBags expands a logical bag name to the physical bags holding its
// data: the partition-map leaves for a partitioned shuffle bag, the name
// itself otherwise. Callers must not hold m.mu.
func (m *Master) physicalBags(name string) []string {
	m.mu.Lock()
	edge := m.edges[name]
	var pmap *shuffle.PartitionMap
	if edge != nil {
		pmap = edge.pmap
	}
	m.mu.Unlock()
	if pmap == nil {
		return []string{name}
	}
	return pmap.Leaves()
}

// RunningOn reports the compute nodes currently executing workers of the
// named task (from running-bag evidence).
func (m *Master) RunningOn(spec string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.tasks[spec]
	if st == nil {
		return nil
	}
	var out []string
	seen := map[string]bool{}
	for _, node := range st.running {
		if !seen[node] {
			seen[node] = true
			out = append(out, node)
		}
	}
	return out
}

// Stats returns a snapshot of activity counters.
func (m *Master) Stats() MasterStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MasterStats{
		Clones:        m.clones,
		CloneRejects:  m.rejects,
		MergeTasks:    m.mergeTasks,
		RenameAdopts:  m.renameAdopts,
		Recoveries:    m.recoveries,
		Yields:        m.yields,
		TasksFinished: m.finished,
	}
}

// YieldClones asks up to n of the job's running clone workers to yield
// at their next chunk boundary — the scheduler's fair-share preemption
// path. A yielded clone finishes normally (its partial output keeps the
// work it already did; the remaining chunks are drained by the task's
// surviving workers through late binding), so preemption never loses or
// redoes work. Every clone is a target and no original worker is (isClone):
// an original never yields and cannot finish before its input is dry, so
// whatever a yielded clone leaves behind is drained. Yields still in flight
// count against n, so repeated preemption rounds do not over-yield. It
// returns the number of yields newly requested.
func (m *Master) YieldClones(n int) int {
	if n <= 0 {
		return 0
	}
	type target struct {
		node, bpID string
		st         *taskState
		w          int
	}
	var targets []target
	m.mu.Lock()
	inflight := 0
	for _, name := range m.app.Tasks() {
		inflight += len(m.tasks[name].yielding)
	}
	budget := n - inflight
	for _, name := range m.app.Tasks() {
		if budget <= 0 {
			break
		}
		st := m.tasks[name]
		if !st.scheduled || st.finished {
			continue
		}
		// Prefer the most recent clones: they have consumed the least.
		for w := st.workers - 1; w >= 1 && budget > 0; w-- {
			if st.doneWorkers[w] || st.yielding[w] || !m.isClone(st, w) {
				continue
			}
			bpID := blueprintID(st.spec.Name, w, st.epoch)
			node, running := st.running[bpID]
			if !running {
				continue // not claimed yet: no slot to free
			}
			st.yielding[w] = true
			m.yields++
			targets = append(targets, target{node: node, bpID: bpID, st: st, w: w})
			budget--
		}
	}
	m.mu.Unlock()
	yielded := 0
	for _, t := range targets {
		if m.control.YieldWorker(t.node, t.bpID) {
			yielded++
			m.obs.yields.Inc()
			m.obs.emit(obs.EvCloneYielded, t.bpID, "node="+t.node)
			continue
		}
		// Worker already gone (completed or killed): roll back.
		m.mu.Lock()
		delete(t.st.yielding, t.w)
		m.yields--
		m.mu.Unlock()
	}
	return yielded
}

// isClone reports whether worker w shares its input with a worker handed
// out before it: any worker but the first of an ordinary task, and for a
// partitioned consumer any worker but the first known on its leaf — the
// leaf's owner, which schedulePass hands out ahead of every clone. A worker
// whose leaf is not known yet is taken for an owner. Callers hold m.mu.
func (m *Master) isClone(st *taskState, w int) bool {
	if m.edgeOf(st.spec) == nil {
		return w > 0
	}
	leaf, known := st.leaf[w]
	for o := 0; known && o < w; o++ {
		if st.leaf[o] == leaf {
			return true
		}
	}
	return false
}

// ---- masterAPI (telemetry forwarding from compute nodes) ----

// overload implements masterAPI: the signal is forwarded into the
// telemetry hub, where the configured policies will see it in the next
// snapshot.
func (m *Master) overload(node string, bp *Blueprint, busy float64) {
	m.hub.OverloadSignal(ctrl.Overload{
		Node:   node,
		Task:   bp.Spec,
		Epoch:  bp.Epoch,
		Worker: bp.Worker,
		Merge:  bp.Kind == KindMerge,
		Inputs: bp.Inputs,
		Busy:   busy,
	})
}

// heartbeat implements masterAPI. A heartbeat is for failure detection
// alone: it updates the node's liveness record, which failureDetectPass
// reads, and wakes nothing.
func (m *Master) heartbeat(node string, running, slots int) {
	m.mu.Lock()
	ns := m.nodes[node]
	if ns == nil {
		ns = &nodeState{}
		m.nodes[node] = ns
	}
	ns.lastBeat = time.Now()
	ns.running = running
	ns.slots = slots
	ns.dead = false
	m.mu.Unlock()
}

// nudge implements masterAPI: compute nodes call it after inserting a
// work-bag record, naming the bag, so the master scans that bag at once.
func (m *Master) nudge(bag ctrl.Cause) { m.hub.Raise(bag) }

// pushReady schedules a blueprint and names the ready bag to the loop: the
// master learns from its own blueprints as from a predecessor's.
func (m *Master) pushReady(bp *Blueprint) error {
	err := m.wb.pushReady(m.ctx, bp)
	m.hub.Raise(ctrl.CauseReady)
	return err
}

// staleBlueprint implements masterAPI: a blueprint whose epoch predates
// the task's current epoch is a leftover from before a failure recovery
// and must not run. Epochs only ever advance, so a false negative here
// (e.g. from a master that has not replayed the recovery yet) merely
// defers the kill to the recovery's own sweep.
func (m *Master) staleBlueprint(bp *Blueprint) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.tasks[bp.Spec]
	return st != nil && bp.Epoch < st.epoch
}

// ---- control loop ----

// fallbackInterval bounds what a lost cause can cost: the loop scans a
// record bag when a cause names it, and this often it rescans all three
// regardless. A coarse default, clamped by the failure detector's deadline,
// which no event announces.
func (m *Master) fallbackInterval() time.Duration {
	d := 50 * time.Millisecond
	if m.cfg.FailTimeout > 0 && m.cfg.FailTimeout/4 < d {
		d = m.cfg.FailTimeout / 4
	}
	return max(d, time.Millisecond)
}

// policyInterval is how often the policies are evaluated when no record
// changes: half the shorter of the gaps they act at (one clone per task per
// CloneInterval, one sketch fetch per edge per SplitInterval), so an action
// waits at most that long past its gate. Without policies, the fallback.
func (m *Master) policyInterval() time.Duration {
	if len(m.policies) == 0 {
		return m.fallbackInterval()
	}
	return max(min(m.cfg.CloneInterval, m.cfg.SplitInterval)/2, time.Millisecond)
}

// loop runs the control loop to its end. A master that was stopped (crash
// simulation, shutdown) exits silently, whatever pass the stop cut short: a
// successor replays the work bags and finishes the job. Any other error —
// the *job's* context cancelled by its submitter included — fails the job,
// so the scheduler releases its lease, concurrency slot, and name claims
// instead of wedging a zombie.
func (m *Master) loop() {
	defer m.wg.Done()
	if err := m.run(); err != nil && !(m.ctx.Err() != nil && m.stopped.Load()) {
		m.fail(err)
	}
}

// run ticks on what the hub's causes name and sleeps until the next cause or
// timed pass. It returns nil once the job is done.
func (m *Master) run() error {
	if err := m.adoptPublishedMaps(); err != nil {
		return err
	}
	m.publishSeeds()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	causes := ctrl.CauseRecords // the replay: every record bag from index 0
	for {
		progress, err := m.tick(causes)
		if err != nil {
			return err
		}
		m.mu.Lock()
		done := m.finished == len(m.tasks)
		m.mu.Unlock()
		if done {
			m.markDone()
			return nil
		}
		// On progress, cascade immediately (a newly sealed bag may make the
		// next task schedulable, a rename adoption completes its task, ...).
		if !progress {
			timer.Reset(min(time.Until(m.policyAt), time.Until(m.rescanAt)))
			select {
			case <-m.hub.Wake():
			case <-timer.C:
			case <-m.ctx.Done():
				return m.ctx.Err()
			}
		}
		causes = m.hub.Take() // before the tick looks: one raised mid-tick is the next tick's
	}
}

func (m *Master) fail(err error) {
	m.mu.Lock()
	if m.jobErr == nil {
		m.jobErr = err
	}
	m.mu.Unlock()
	m.markDone()
}

// markDone closes the done channel exactly once and freezes the
// profiler's job-wall end time.
func (m *Master) markDone() {
	m.doneOnce.Do(func() {
		m.mu.Lock()
		m.profEnd = time.Now()
		m.mu.Unlock()
		close(m.doneCh)
	})
}

// tick performs one pass of the master's control loop, doing what its
// causes name and what has come due. It scans the record bags named — all
// of them once per fallbackInterval, so a lost nudge costs latency, never
// correctness — and runs the control pass when records or recoveries changed
// what the policies see, or once per policyInterval: buffered overload
// signals wait for that. Scheduling, completion and failure detection read
// master state only and always run; an idle master makes no storage call.
// It reports whether the pass made observable progress (absorbed records,
// applied actions, scheduled or completed tasks): the loop re-runs
// immediately on progress and blocks otherwise.
func (m *Master) tick(causes ctrl.Cause) (bool, error) {
	now := time.Now()
	if !now.Before(m.rescanAt) {
		causes |= ctrl.CauseRecords
		m.rescanAt = now.Add(m.fallbackInterval())
	}
	absorbed, err := m.absorbRecords(causes)
	if err != nil {
		return false, err
	}
	m.mu.Lock()
	if m.jobErr != nil {
		err := m.jobErr
		m.mu.Unlock()
		return false, err
	}
	m.mu.Unlock()
	recovered := m.drainRecoveries()
	applied := 0
	timed := !now.Before(m.policyAt)
	if absorbed+recovered > 0 || timed {
		if applied, err = m.controlPass(); err != nil {
			return false, err
		}
	}
	if timed {
		// Counted from the end of the pass, and not moved by the passes
		// records cause: two timed passes then span at least SplitInterval,
		// so the second never finds the hub's fetch gate a hair short of open.
		m.policyAt = time.Now().Add(m.policyInterval())
	}
	scheduled, err := m.schedulePass()
	if err != nil {
		return false, err
	}
	completed, err := m.completionPass()
	if err != nil {
		return false, err
	}
	m.failureDetectPass()
	return absorbed+recovered+applied+scheduled+completed > 0, nil
}

// controlPass runs the adaptive control plane: build a telemetry snapshot,
// evaluate the configured policies, and apply the arbitrated actions. It
// returns the number of state-changing actions applied.
func (m *Master) controlPass() (int, error) {
	if len(m.policies) == 0 {
		return 0, nil
	}
	snap := m.hub.Snapshot(m.ctx, m.fillSnapshot)
	// Propose and arbitrate separately so the proposed-versus-surviving gap
	// is observable: the suppressed counter is the arbiter's work —
	// duplicate clones collapsed, clone budgets enforced.
	var proposed []ctrl.Action
	for _, p := range m.policies {
		proposed = append(proposed, p.Evaluate(snap)...)
	}
	actions := ctrl.Arbitrate(snap, proposed)
	m.obs.proposed.Add(uint64(len(proposed)))
	m.obs.suppressed.Add(uint64(len(proposed) - len(actions)))
	applied, err := m.applyActions(actions)
	m.obs.applied.Add(uint64(applied))
	return applied, err
}

// fillSnapshot contributes the master's authoritative task and edge state
// to a telemetry snapshot. Pure forwarding: no decisions are made here.
func (m *Master) fillSnapshot(snap *ctrl.Snapshot) {
	snap.Job = m.cfg.Job
	snap.FreeSlots = m.control.FreeSlots()
	snap.TotalSlots = m.control.TotalSlots()
	if li, ok := m.control.(LeaseInfo); ok {
		snap.LeaseCapped = true
		snap.LeaseSlots = li.LeaseSlots()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, st := range m.tasks {
		t := &ctrl.TaskTel{
			Name:        name,
			Epoch:       st.epoch,
			Scheduled:   st.scheduled,
			Finished:    st.finished,
			Workers:     st.workers,
			DoneWorkers: len(st.doneWorkers),
			StartedAt:   st.startedAt,
			LastClone:   st.lastClone,
			NoClone:     st.spec.NoClone,
			MaxClones:   st.spec.MaxClones,
			HasMerge:    st.spec.requiresMerge(),
			Inputs:      st.spec.Inputs,
		}
		if edge := m.edgeOf(st.spec); edge != nil {
			t.ConsumesEdge = edge.name
			t.EdgeSpread = edge.spec.Spread
			t.Consumers = make(map[string]int)
			for w, leaf := range st.leaf {
				if !st.doneWorkers[w] {
					t.Consumers[leaf]++
				}
			}
		}
		snap.Tasks[name] = t
	}
	for name, edge := range m.edges {
		snap.Edges[name] = m.edgeTelLocked(edge)
	}
}

// applyActions validates and applies arbitrated control-plane actions
// against the master's authoritative state, in one place. An action whose
// precondition no longer holds is dropped (the next snapshot will
// re-propose if still warranted). It returns the number of state-changing
// actions applied.
func (m *Master) applyActions(actions []ctrl.Action) (int, error) {
	applied := 0
	for _, a := range actions {
		switch act := a.(type) {
		case ctrl.CloneTask:
			ok, err := m.applyClone(act)
			if err != nil {
				return applied, err
			}
			if ok {
				applied++
			}
		case ctrl.RejectClone:
			m.mu.Lock()
			m.rejects++
			m.mu.Unlock()
			m.obs.rejects.Inc()
		default:
			// The action vocabulary is closed (see ctrl.Action): a type
			// the master does not recognize has no apply path and is
			// dropped. Custom policies extend behavior by composing the
			// built-in actions, not by inventing new ones.
		}
	}
	return applied, nil
}

// applyClone applies one CloneTask action: hand out the next worker index
// and schedule it like any other task ("the master performs task cloning
// by scheduling a copy of the task on an idle node, as it would any other
// task", §3.2).
func (m *Master) applyClone(act ctrl.CloneTask) (bool, error) {
	m.mu.Lock()
	st := m.tasks[act.Task]
	if st == nil || st.epoch != act.Epoch || !st.scheduled || st.finished || st.spec.NoClone {
		m.mu.Unlock()
		return false, nil
	}
	if ctrl.AtWorkerCap(st.workers-len(st.doneWorkers), st.spec.MaxClones, m.control.TotalSlots()) {
		m.mu.Unlock()
		return false, nil
	}
	w := st.workers
	st.workers++
	st.lastClone = time.Now()
	m.clones++
	bp := m.blueprintFor(st, w, act.Inputs)
	m.mu.Unlock()
	if err := m.pushReady(bp); err != nil {
		return false, err
	}
	m.obs.clones.Inc()
	m.obs.emit(obs.EvTaskCloned, act.Task, fmt.Sprintf("worker=%d", w))
	return true, nil
}

// recordBag is one of the work bags the master learns from: the cause that
// names it, a non-consuming scanner whose per-slot cursors make each scan
// incremental (a new master's first one replays the whole bag, §4.4), how a
// record folds into master state, and a count of the scans — proportional to
// record events, where hurricane_ctrl_snapshots_total is to time.
type recordBag struct {
	cause  ctrl.Cause
	scan   *bag.Scanner
	absorb func(chunk.Chunk) error // called with m.mu held
	scans  *obs.Counter
}

// absorbRecords folds the new records of the bags causes names into master
// state, returning how many records were seen. Absorbing is idempotent,
// which is what lets a recovered master rebuild by rescanning from the
// start.
func (m *Master) absorbRecords(causes ctrl.Cause) (seen int, err error) {
	for _, rb := range m.records {
		if causes&rb.cause == 0 {
			continue
		}
		rb.scans.Inc()
		if _, err := rb.scan.Drain(m.ctx, func(c chunk.Chunk) error {
			seen++
			m.mu.Lock()
			defer m.mu.Unlock()
			return rb.absorb(c)
		}); err != nil {
			return seen, err
		}
	}
	return seen, nil
}

// absorbReady folds one ready-bag blueprint (not yet claimed, or claimed
// long ago: the scan does not consume) into task state.
func (m *Master) absorbReady(c chunk.Chunk) error {
	bp, err := DecodeBlueprint(c)
	if err != nil {
		return err
	}
	m.applyScheduledEvidence(bp.Spec, bp.Epoch, bp.Worker, bp.Kind == KindMerge)
	// The ready bag carries full blueprints, so it is where the master
	// learns which leaf each worker of a partitioned consumer pulls
	// from — the workers it pushed itself and a predecessor's alike.
	if st := m.tasks[bp.Spec]; bp.Kind == KindTask && st != nil && bp.Epoch == st.epoch && m.edgeOf(st.spec) != nil {
		st.leaf[bp.Worker] = bp.Inputs[0]
	}
	return nil
}

// absorbRunning folds one running-bag start event into task state.
func (m *Master) absorbRunning(c chunk.Chunk) error {
	e, err := decodeEvent(c)
	if err != nil {
		return err
	}
	m.applyScheduledEvidence(e.Spec, e.Epoch, e.Worker, e.Merge)
	if st := m.tasks[e.Spec]; st != nil && e.Epoch == st.epoch {
		if _, done := st.doneWorkers[e.Worker]; !done || e.Merge {
			st.running[e.TaskID] = e.Node
		}
	}
	return nil
}

// applyScheduledEvidence records that worker w of (spec, epoch) was
// scheduled, whether by this master instance or a predecessor.
func (m *Master) applyScheduledEvidence(spec string, epoch, worker int, isMerge bool) {
	st := m.tasks[spec]
	if st == nil || epoch < st.epoch {
		return
	}
	if epoch > st.epoch {
		// Evidence from a future epoch (scheduled by a predecessor after
		// a recovery this instance hasn't replayed yet).
		st.reset(epoch)
	}
	st.scheduled = true
	if isMerge {
		st.mergeSched = true
		return
	}
	if worker+1 > st.workers {
		st.workers = worker + 1
	}
	if st.startedAt.IsZero() {
		st.startedAt = time.Now()
	}
}

// absorbDone folds one done-bag event into task state.
func (m *Master) absorbDone(c chunk.Chunk) error {
	e, err := decodeEvent(c)
	if err != nil {
		return err
	}
	if m.seenEvents[e.TaskID+"/done"] {
		return nil
	}
	m.seenEvents[e.TaskID+"/done"] = true
	st := m.tasks[e.Spec]
	if st == nil {
		return fmt.Errorf("core: done event for unknown task %q", e.Spec)
	}
	if e.Epoch != st.epoch {
		return nil // stale epoch: ignore
	}
	if !e.OK {
		m.jobErr = fmt.Errorf("core: task %s failed on %s: %s", e.TaskID, e.Node, e.Err)
		return nil
	}
	delete(st.running, e.TaskID)
	if e.Spans != nil {
		m.spans = append(m.spans, *e.Spans)
		// Feed the straggler watchdog: the p99/p50 spread of this
		// histogram is the per-sample straggler signal.
		m.obs.taskSpan.Observe(e.Spans.WallNS())
	}
	if e.Merge {
		st.mergeDone = true
		return nil
	}
	m.applyScheduledEvidence(e.Spec, e.Epoch, e.Worker, false)
	st.doneWorkers[e.Worker] = true
	delete(st.yielding, e.Worker)
	return nil
}

// schedulePass schedules every unscheduled task whose input bags are all
// sealed ("the master ... schedules new tasks once their dependencies have
// been completed", §4.1). Pipelined tasks are scheduled as soon as every
// producer of their input bags is scheduled: their workers stream chunks
// as they appear and terminate when the bags seal and drain. It returns
// the number of tasks scheduled.
func (m *Master) schedulePass() (int, error) {
	m.mu.Lock()
	var toSchedule []*taskState
	var leafAssign [][]string
	for _, name := range m.app.Tasks() {
		st := m.tasks[name]
		if st.scheduled || st.finished {
			continue
		}
		ready := true
		for _, in := range st.spec.Inputs {
			if m.sealed[in] {
				continue
			}
			if st.spec.Pipelined && m.producersScheduled(in) {
				continue
			}
			ready = false
			break
		}
		if ready {
			for _, in := range st.spec.ScanInputs {
				if !m.sealed[in] {
					ready = false
					break
				}
			}
		}
		if ready {
			st.scheduled = true
			st.startedAt = time.Now()
			// A consumer of a partitioned bag gets one worker per
			// physical partition — the edge's partition map is final: a
			// seed map is published before the first scheduling pass, and
			// nothing revises it after.
			leaves := m.partitionLeavesFor(st.spec)
			if leaves == nil {
				st.workers = 1
			} else {
				st.workers = len(leaves)
			}
			toSchedule = append(toSchedule, st)
			leafAssign = append(leafAssign, leaves)
		}
	}
	m.mu.Unlock()
	scheduled := 0
	for i, st := range toSchedule {
		leaves := leafAssign[i]
		if leaves == nil {
			if err := m.pushReady(m.blueprintFor(st, 0, nil)); err != nil {
				return scheduled, err
			}
			scheduled++
			m.obs.scheduled.Inc()
			m.obs.emit(obs.EvTaskScheduled, st.spec.Name, "workers=1")
			continue
		}
		for w, leaf := range leaves {
			if err := m.pushReady(m.blueprintFor(st, w, []string{leaf})); err != nil {
				return scheduled, err
			}
			scheduled++
		}
		m.obs.scheduled.Inc()
		m.obs.emit(obs.EvTaskScheduled, st.spec.Name,
			fmt.Sprintf("workers=%d (one per partition)", len(leaves)))
	}
	return scheduled, nil
}

// edgeOf returns the partitioned shuffle edge a task consumes, or nil for
// ordinary tasks. Validate guarantees a partitioned consumer has exactly
// one input.
func (m *Master) edgeOf(spec *TaskSpec) *shuffleEdge {
	if len(spec.Inputs) != 1 {
		return nil
	}
	return m.edges[spec.Inputs[0]]
}

// partitionLeavesFor returns the physical partition bags a task consumes,
// or nil for ordinary tasks.
func (m *Master) partitionLeavesFor(spec *TaskSpec) []string {
	edge := m.edgeOf(spec)
	if edge == nil {
		return nil
	}
	return edge.pmap.Leaves()
}

// producersScheduled reports whether every producer task of a bag has
// been scheduled (pipelined consumers may then start streaming). A bag
// with no producers and no seal never becomes ready, so source bags still
// require sealing.
func (m *Master) producersScheduled(bagName string) bool {
	prods := m.app.Producers(bagName)
	if len(prods) == 0 {
		return false
	}
	for _, p := range prods {
		if !m.tasks[p].scheduled {
			return false
		}
	}
	return true
}

// blueprintFor builds the blueprint for worker w of a task at its current
// epoch. Tasks with a merge procedure write to private partial bags.
// inputs overrides the consumed bags (partitioned consumers: each worker
// owns one physical partition); nil means the spec's declared inputs.
func (m *Master) blueprintFor(st *taskState, w int, inputs []string) *Blueprint {
	if inputs == nil {
		inputs = st.spec.Inputs
	}
	outputs := st.spec.Outputs
	if st.spec.requiresMerge() {
		outputs = []string{partialBag(st.spec.Outputs[0], w, st.epoch)}
	}
	return &Blueprint{
		ID:          blueprintID(st.spec.Name, w, st.epoch),
		Spec:        st.spec.Name,
		Kind:        KindTask,
		Worker:      w,
		Epoch:       st.epoch,
		Inputs:      inputs,
		Outputs:     outputs,
		ScanInputs:  st.spec.ScanInputs,
		ScheduledAt: time.Now().UnixNano(),

		StatsInterval: m.cfg.SplitInterval,
	}
}

// completionPass advances tasks whose workers have all finished: injecting
// merge tasks, adopting sole-worker outputs by rename, sealing output
// bags, and marking tasks finished. It returns the number of state
// transitions made.
func (m *Master) completionPass() (int, error) {
	changed := 0
	for _, name := range m.app.Tasks() {
		m.mu.Lock()
		st := m.tasks[name]
		if !st.scheduled || st.finished || st.workers == 0 || len(st.doneWorkers) < st.workers {
			m.mu.Unlock()
			continue
		}
		// All workers of the current epoch are done.
		if !st.spec.requiresMerge() {
			m.mu.Unlock()
			if err := m.finishTask(st); err != nil {
				return changed, err
			}
			changed++
			continue
		}
		switch {
		case st.mergeDone:
			m.mu.Unlock()
			if err := m.finishTask(st); err != nil {
				return changed, err
			}
			if err := m.gcPartials(st); err != nil {
				return changed, err
			}
			changed++
		case st.workers == 1 && !st.renamed:
			// A task that was never cloned needs no merge: adopt the
			// sole partial output as the final output by rename.
			st.renamed = true
			m.mu.Unlock()
			if err := m.store.Rename(m.ctx, partialBag(st.spec.Outputs[0], 0, st.epoch), st.spec.Outputs[0]); err != nil {
				return changed, err
			}
			m.mu.Lock()
			m.renameAdopts++
			st.mergeDone = true
			m.mu.Unlock()
			changed++
		case st.workers > 1 && !st.mergeSched:
			st.mergeSched = true
			partials := st.partials()
			epoch := st.epoch
			m.mu.Unlock()
			// Seal partials so the merge task's removes terminate.
			for _, p := range partials {
				if err := m.store.Seal(m.ctx, p); err != nil {
					return changed, err
				}
			}
			mbp := &Blueprint{
				ID:          blueprintID(st.spec.Name+"+merge", 0, epoch),
				Spec:        st.spec.Name,
				Kind:        KindMerge,
				Epoch:       epoch,
				Inputs:      partials,
				Outputs:     st.spec.Outputs,
				ScheduledAt: time.Now().UnixNano(),

				StatsInterval: m.cfg.SplitInterval,
			}
			if err := m.pushReady(mbp); err != nil {
				return changed, err
			}
			m.mu.Lock()
			m.mergeTasks++
			m.mu.Unlock()
			changed++
		default:
			m.mu.Unlock()
		}
	}
	return changed, nil
}

// finishTask marks a task finished and seals any output bag all of whose
// producers have finished, making downstream tasks schedulable.
func (m *Master) finishTask(st *taskState) error {
	m.mu.Lock()
	if st.finished {
		m.mu.Unlock()
		return nil
	}
	st.finished = true
	m.finished++
	m.obs.finished.Inc()
	m.obs.emit(obs.EvTaskFinished, st.spec.Name, fmt.Sprintf("workers=%d", st.workers))
	var toSeal []string
	for _, out := range st.spec.Outputs {
		allDone := true
		for _, p := range m.app.Producers(out) {
			if !m.tasks[p].finished {
				allDone = false
				break
			}
		}
		if allDone && !m.sealed[out] {
			m.sealed[out] = true
			toSeal = append(toSeal, out)
		}
	}
	m.mu.Unlock()
	for _, b := range toSeal {
		for _, phys := range m.physicalBags(b) {
			if err := m.store.Seal(m.ctx, phys); err != nil {
				return err
			}
		}
		// A sealed shuffle edge takes no further records, so its
		// per-writer sketch state on the storage tier has served its
		// purpose. Hand the hub the edge's final map and merged sketch
		// first — short jobs (streaming windows) often seal before the
		// hub's rate-limited fetch ever ran, and this is the last chance
		// to learn the edge's key distribution — then wipe the slot. The
		// fetch is best-effort (the sketch is advisory).
		if edge := m.edges[b]; edge != nil {
			m.mu.Lock()
			tel := m.edgeTelLocked(edge)
			m.mu.Unlock()
			if stats, err := m.store.FetchSketch(m.ctx, b); err == nil && stats.Total() > 0 {
				tel.Stats = stats
			}
			m.hub.ObserveEdge(*tel)
			if err := m.store.DeleteSketch(m.ctx, b); err != nil {
				return err
			}
		}
	}
	return nil
}

// gcPartials garbage-collects a task's partial bags after its merge
// completes.
func (m *Master) gcPartials(st *taskState) error {
	m.mu.Lock()
	partials := st.partials()
	m.mu.Unlock()
	for _, p := range partials {
		if err := m.store.Delete(m.ctx, p); err != nil {
			return err
		}
	}
	return nil
}
