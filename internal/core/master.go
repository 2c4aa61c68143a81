package core

import (
	"context"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bag"
	"repro/internal/ctrl"
	"repro/internal/obs"
)

// MasterConfig tunes the application master.
type MasterConfig struct {
	// CloneInterval is the minimum gap between successive clones of one
	// task. The paper sends clone messages at least 2 seconds apart.
	CloneInterval time.Duration
	// SpeculativeCloning does nothing: only an overload signal triggers a
	// clone. The field stays because the frozen benchmark sets it.
	SpeculativeCloning bool

	// SplitInterval does nothing: edge statistics travel in the producers'
	// done records and no policy revises a partition map at runtime. The
	// field stays because the frozen benchmark sets it.
	SplitInterval time.Duration

	// Policies selects the mitigation strategies the control plane runs
	// for this job. Nil installs the default set (DefaultPolicies); an
	// explicit empty slice disables all mitigation. Custom policies
	// implement ctrl.Policy; their snapshots carry task state, overload
	// signals and bag-depth probes, but no edge statistics: an edge's are
	// known once it seals (EdgeMemory).
	Policies []ctrl.Policy
}

func (c *MasterConfig) fill() {
	if c.CloneInterval <= 0 {
		c.CloneInterval = 2 * time.Second // paper default
	}
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
	control *jobControl // the owning job's grip on the cluster

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
	jobErr     error
	doneCh     chan struct{}
	doneOnce   sync.Once

	// replayed is closed once the loop's first scan of the record bags has
	// returned, or once the loop has exited: staleBlueprint rules only then.
	replayed     chan struct{}
	replayedOnce sync.Once

	// failTimeout is the heartbeat silence after which a compute node
	// holding work is declared dead, derived from the nodes' heartbeat
	// period (recovery.go).
	failTimeout time.Duration

	records []recordBag // ready, running, done

	// policyAt and rescanAt: when the next timed control pass and the next
	// fallback rescan are due (loop goroutine only; the first tick does both).
	policyAt, rescanAt time.Time

	// edges tracks the app's partitioned shuffle bags (core/shuffle.go).
	// Fixed by newMaster: an edge's map does not change while its job runs.
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
	// metric handles; events carry obs.job, the owning job's name.
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

	proposed *obs.Counter
	applied  *obs.Counter
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

		proposed: o.Counter("hurricane_ctrl_actions_proposed_total", l...),
		applied:  o.Counter("hurricane_ctrl_actions_applied_total", l...),
	}
}

// emit appends one trace event attributed to this master's job.
func (mo *masterObs) emit(typ obs.EventType, subject, detail string) {
	mo.o.Emit(typ, mo.job, subject, detail)
}

// newMaster creates a master for the app of control's job, which it tells
// of each blueprint it pushes. The app is validated, its source bags
// sealed. o receives the master's metrics (labeled by job) and
// decision trace events; nil disables instrumentation (every update site
// degrades to a nil check). beat is the compute nodes' heartbeat period,
// from which the master derives its failure timeout.
func newMaster(app *App, store *bag.Store, control *jobControl, o *obs.Observer, cfg MasterConfig, beat time.Duration) *Master {
	cfg.fill()
	job := control.job
	m := &Master{
		app:         app,
		store:       store,
		wb:          newWorkBags(store, app.Name()),
		cfg:         cfg,
		control:     control,
		tasks:       make(map[string]*taskState),
		sealed:      make(map[string]bool),
		nodes:       make(map[string]*nodeState),
		seenEvents:  make(map[string]bool),
		doneCh:      make(chan struct{}),
		replayed:    make(chan struct{}),
		failTimeout: failTimeout(beat),
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
	m.obs = newMasterObs(o, job)
	scans := func(label string) *obs.Counter {
		return o.Counter("hurricane_core_record_scans_total", "job", job, "bag", label)
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
		ProbeInterval: cfg.CloneInterval,
		SampleBag: func(ctx context.Context, bagName string) (*ctrl.BagTel, error) {
			stats, err := store.Sample(ctx, bagName)
			if err != nil {
				return nil, err
			}
			return &ctrl.BagTel{RemainingBytes: stats.RemainingBytes()}, nil
		},
		Obs: o,
		Job: job,
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
	CloneRejects  int // clone requests rejected (no idle slot or no input left)
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
	names := slices.Collect(maps.Keys(m.sealed))
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

// RunningOn reports the compute nodes currently executing workers of the
// named task (from running-bag evidence).
func (m *Master) RunningOn(spec string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.tasks[spec]
	if st == nil {
		return nil
	}
	nodes := slices.Sorted(maps.Values(st.running))
	return slices.Compact(nodes)
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
		TasksFinished: m.finishedLocked(),
	}
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
// alone: it updates the node's liveness record, which detectFailures
// reads, and wakes nothing.
func (m *Master) heartbeat(node string) {
	m.mu.Lock()
	m.nodes[node] = &nodeState{lastBeat: time.Now()} // alive again, if it was dead
	m.mu.Unlock()
}

// nudge implements masterAPI: compute nodes call it after inserting a
// work-bag record, naming the bag, so the master scans that bag at once.
func (m *Master) nudge(bag ctrl.Cause) { m.hub.Raise(bag) }

// pushReady schedules a blueprint and names the ready bag to the loop: the
// master learns from its own blueprints as from a predecessor's.
func (m *Master) pushReady(bp *Blueprint) error {
	err := m.wb.pushReady(m.ctx, bp)
	if err == nil {
		m.control.pushed()
	}
	m.hub.Raise(ctrl.CauseReady)
	return err
}

// staleBlueprint implements masterAPI: a blueprint whose epoch predates
// the task's current epoch is a leftover from before a failure recovery
// and must not run. A recovered master learns the epochs from its replay
// of the work bags, so the ruling waits for that replay: before it, a
// stale blueprint would pass and start a worker no recovery sweep kills.
// A master pushes nothing before its replay, so only a blueprint some
// predecessor pushed can wait. A master that exited without replaying
// answers from what it has.
func (m *Master) staleBlueprint(bp *Blueprint) bool {
	<-m.replayed
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.tasks[bp.Spec]
	return st != nil && bp.Epoch < st.epoch
}

// ---- control loop ----

// fallbackInterval bounds what a lost cause can cost: the loop scans a
// record bag when a cause names it, and this often it rescans all three
// regardless. It also paces failure detection, which no event announces.
const fallbackInterval = 50 * time.Millisecond

// loop runs the control loop to its end. A master that was stopped (crash
// simulation, shutdown) exits silently, whatever pass the stop cut short: a
// successor replays the work bags and finishes the job. Any other error —
// the *job's* context cancelled by its submitter included — fails the job,
// so the scheduler releases its lease, concurrency slot, and name claims
// instead of wedging a zombie.
func (m *Master) loop() {
	defer m.wg.Done()
	defer m.markReplayed()
	if err := m.run(); err != nil && !(m.ctx.Err() != nil && m.stopped.Load()) {
		m.fail(err)
	}
}

// run ticks on what the hub's causes name and sleeps until the next cause or
// timed pass, seeding the job's lease demand before it pushes anything. It
// returns nil once the job is done.
func (m *Master) run() error {
	if err := m.control.seedDemand(m.ctx, m.wb.readyName()); err != nil {
		return err
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	causes := ctrl.CauseRecords // the replay: every record bag from index 0
	for {
		progress, err := m.tick(causes)
		if err != nil {
			return err
		}
		m.mu.Lock()
		done := m.finishedLocked() == len(m.tasks)
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

// markReplayed closes the replayed channel exactly once.
func (m *Master) markReplayed() {
	m.replayedOnce.Do(func() { close(m.replayed) })
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
// recovered nodes, applied actions, scheduled or completed tasks): the loop
// re-runs immediately on progress and blocks otherwise.
func (m *Master) tick(causes ctrl.Cause) (bool, error) {
	now := time.Now()
	if !now.Before(m.rescanAt) {
		causes |= ctrl.CauseRecords
		m.rescanAt = now.Add(fallbackInterval)
	}
	absorbed, err := m.absorbRecords(causes)
	if err != nil {
		return false, err
	}
	m.markReplayed() // the first tick scans every record bag
	m.mu.Lock()
	err = m.jobErr
	m.mu.Unlock()
	if err != nil {
		return false, err
	}
	recovered := m.detectFailures(now)
	applied := 0
	timed := !now.Before(m.policyAt)
	if absorbed+recovered > 0 || timed {
		if applied, err = m.controlPass(); err != nil {
			return false, err
		}
	}
	if timed {
		// Counted from the end of the pass, and not moved by the passes
		// records cause: two timed passes then span at least half a
		// CloneInterval, whatever the record rate.
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
	return absorbed+recovered+applied+scheduled+completed > 0, nil
}
