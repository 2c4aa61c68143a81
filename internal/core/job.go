package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/shuffle"
)

// JobConfig tunes one job submission to a multi-job cluster.
type JobConfig struct {
	// Name uniquely identifies the job within the cluster. Empty
	// defaults to the application name. Two live jobs cannot share a
	// name. It also namespaces the job's bags: every declared bag name
	// (and every name derived from one — physical partitions, work bags,
	// clone partials) is stored as "<Name>/<bag>", so concurrent jobs
	// built from the same application graph cannot collide. Load source
	// bags and read outputs through JobHandle.Bag, which maps declared
	// names to physical ones.
	Name string
	// Raw disables namespacing: bags keep their declared names.
	// Cluster.Run submits this way so single-job applications keep the
	// paper's flat naming. That prefix is the only difference: a raw job
	// claims, and Discard or Reset deletes, the same names as a
	// namespaced one, and its submission is refused when they overlap a
	// live job's.
	Raw bool
	// Weight is the job's fair-share weight (default 1). A weight-2 job
	// is entitled to twice the worker slots of a weight-1 job under
	// contention.
	Weight int
	// Seeds are warm-start partition maps for the job's partitioned
	// edges, keyed by declared bag name (the query planner's compile-time
	// skew memory, or a stream's previous window). SubmitJob refuses a
	// seed whose bag is not a partitioned bag of the app, whose Base is
	// not the bag's Partitions, or that fails shuffle's Validate; the rest
	// are fixed on the job's copy of the app, and the edge's master and
	// producers route by the seed for the whole job. Nothing is written
	// to storage for a seed.
	Seeds map[string]*shuffle.PartitionMap
}

// JobStats reports a job's scheduling state and its master's activity.
type JobStats struct {
	State   string // running | done | failed
	Weight  int
	Share   int // current fair-share slot allotment (0 once finished)
	Running int // worker slots claimed cluster-wide right now
	Master  MasterStats
}

// JobHandle is the caller's grip on one submitted job.
type JobHandle struct {
	c      *Cluster
	id     string
	prefix string // "" for raw jobs
	app    *App   // namespaced application graph

	mu      sync.Mutex
	master  *Master
	swap    chan struct{} // closed when master is replaced (recovery)
	state   sched.State
	err     error
	done    chan struct{}
	explain func(*obs.Profile) string
}

// ID returns the job's unique name.
func (h *JobHandle) ID() string { return h.id }

// Bag maps a declared bag name to the physical (namespaced) bag name:
// load source bags into, and collect outputs from, the returned name.
func (h *JobHandle) Bag(name string) string {
	if h.prefix == "" {
		return name
	}
	return h.prefix + "/" + name
}

// State reports the job's lifecycle state.
func (h *JobHandle) State() sched.State {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// Done returns a channel closed when the job completes (or fails).
func (h *JobHandle) Done() <-chan struct{} { return h.done }

// Err returns the job error, if any. Valid after Done is closed.
func (h *JobHandle) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// Wait blocks until the job completes and returns its error.
func (h *JobHandle) Wait(ctx context.Context) error {
	select {
	case <-h.done:
		return h.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats returns the job's scheduling and master counters.
func (h *JobHandle) Stats() JobStats {
	h.mu.Lock()
	m := h.master
	state := h.state
	h.mu.Unlock()
	ls := h.c.leases.Stats(h.id)
	return JobStats{
		State:   state.String(),
		Weight:  h.c.reg.Weight(h.id),
		Share:   ls.Share,
		Running: ls.Running,
		Master:  m.Stats(),
	}
}

// Master returns the job's current application master. After completion
// it still holds the final master's state — the streaming subsystem reads
// EdgeMemory from it to warm-start the next window.
func (h *JobHandle) Master() *Master {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.master
}

// Metrics snapshots the cluster registry's view of this job: every
// series labeled job=<id> (with the label stripped from the returned
// names) plus the unlabeled cluster-wide series. Histograms flatten to
// _count/_sum/_p50/_p95/_p99.
func (h *JobHandle) Metrics() map[string]float64 {
	return h.c.obs.Registry().SnapshotFor("job", h.id)
}

// Trace returns the job's slice of the cluster-wide event trace, oldest
// first.
func (h *JobHandle) Trace() []obs.Event {
	return h.c.obs.Tracer().Events(h.id, "")
}

// Profile returns the job's measured execution profile: per-stage phase
// spans, the critical path through the task DAG, and per-edge skew
// attribution. Partial while the job runs; complete once Done.
func (h *JobHandle) Profile() *obs.Profile { return h.Master().Profile() }

// SetExplain registers a renderer that turns the job's measured profile
// into an EXPLAIN ANALYZE report. Planner-compiled jobs register their
// physical plan's renderer at submission; hand-wired jobs leave it unset
// and Explain falls back to the profile's generic rendering.
func (h *JobHandle) SetExplain(f func(*obs.Profile) string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.explain = f
}

// Explain renders the job's EXPLAIN ANALYZE: the registered renderer
// applied to the measured profile, or the profile's generic rendering
// when none was registered.
func (h *JobHandle) Explain() string {
	p := h.Profile()
	h.mu.Lock()
	f := h.explain
	h.mu.Unlock()
	if f != nil {
		return f(p)
	}
	return p.String()
}

// finish records completion exactly once.
func (h *JobHandle) finish(err error) {
	h.mu.Lock()
	if h.state == sched.StateDone || h.state == sched.StateFailed {
		h.mu.Unlock()
		return
	}
	h.err = err
	if err != nil {
		h.state = sched.StateFailed
	} else {
		h.state = sched.StateDone
	}
	h.mu.Unlock()
	close(h.done)
}

// Discard garbage collects every bag the finished job owned — outputs
// included — and releases its name claims, so a later submission may
// reuse the names. It fails while the job is running.
func (h *JobHandle) Discard(ctx context.Context) error {
	return h.release(ctx, "discard", h.c.store.Delete)
}

// Reset prepares a completed — typically failed — job for resubmission
// under the same name: its source bags are rewound so their consumed
// chunks replay from the start, every other bag it claims is deleted as
// Discard deletes it, and the job's registration and name claims are
// released. The streaming subsystem's window retry is the intended
// caller: rewinding instead of re-ingesting preserves exactly-once per
// window without a second copy of the input. The handle is dead
// afterwards; resubmit the application with SubmitJob. A running job
// cannot be reset.
func (h *JobHandle) Reset(ctx context.Context) error {
	return h.release(ctx, "reset", h.c.store.Rewind)
}

// release is Discard and Reset: it applies source (Delete or Rewind) to
// each source bag, deletes every other name and stem the job claims
// (appClaims) and each partitioned edge's storage-side sketch state —
// which plain Delete does not touch and which would otherwise seed a
// name-reusing successor with this job's cumulative producer statistics —
// and then drops the job's registration and claims.
func (h *JobHandle) release(ctx context.Context, verb string, source func(context.Context, string) error) error {
	if h.State() == sched.StateRunning {
		return fmt.Errorf("core: job %q is running; %s after completion", h.id, verb)
	}
	// After Reset the job's name may be owned by a live successor — the
	// streaming subsystem's window retry. A stale handle would rewind or
	// delete that successor's bags mid-run and release its claims; only
	// the currently registered handle may release the name.
	c := h.c
	c.mu.Lock()
	cur := c.jobs[h.id]
	c.mu.Unlock()
	if cur != h {
		return fmt.Errorf("core: job %q handle is stale (name released or reclaimed); %s through the live handle", h.id, verb)
	}
	claims := appClaims(h.app)
	for _, b := range claims.Exact {
		spec := h.app.BagSpecFor(b) // nil for a work bag
		del := c.store.Delete
		if spec != nil && spec.Source {
			del = source
		}
		if err := del(ctx, b); err != nil {
			return err
		}
	}
	for _, p := range claims.Prefix {
		if err := c.store.DeletePrefix(ctx, p); err != nil {
			return err
		}
	}
	c.reg.Release(h.id)
	c.mu.Lock()
	if c.jobs[h.id] == h {
		delete(c.jobs, h.id)
	}
	if c.primary == h {
		c.primary = nil
	}
	c.mu.Unlock()
	return nil
}

// ---- namespacing ----

// jobApp returns the copy of app a job runs: every bag name (and the
// application name, which keys the work bags) moved under "<prefix>/",
// unless prefix is empty (a raw job), and each seed fixed on its edge's
// spec. Task names are left alone: blueprints live in the job's own work
// bags, so they cannot collide across jobs. Task functions are shared by
// reference — they address bags by index through the TaskCtx, so they
// observe the namespaced names transparently. The caller's app is never
// mutated. A seed that does not match its edge is an error: one for a bag
// that is not a partitioned edge of the app, one of another Base, whose
// leaves the master would seal and drain while the producers wrote the
// base map's, or one that sets Splits, which nothing routes by: a map is
// base partitions plus isolated keys.
func jobApp(app *App, prefix string, seeds map[string]*shuffle.PartitionMap) (*App, error) {
	ns := func(n string) string { return n }
	if prefix != "" {
		ns = func(n string) string { return prefix + "/" + n }
	}
	out := NewApp(ns(app.name))
	for name, b := range app.bags {
		s := *b
		s.Name = ns(name)
		out.bags[s.Name] = &s
	}
	nsAll := func(names []string) []string {
		if names == nil {
			return nil
		}
		mapped := make([]string, len(names))
		for i, n := range names {
			mapped[i] = ns(n)
		}
		return mapped
	}
	for name, t := range app.tasks {
		s := *t
		s.Inputs = nsAll(t.Inputs)
		s.Outputs = nsAll(t.Outputs)
		s.ScanInputs = nsAll(t.ScanInputs)
		out.tasks[name] = &s
	}
	for name, seed := range seeds {
		spec := out.bags[ns(name)]
		switch {
		case seed == nil:
			continue
		case spec == nil || spec.Partitions <= 0:
			return nil, fmt.Errorf("seed for %q, which is not a partitioned bag", name)
		case seed.Base != spec.Partitions:
			return nil, fmt.Errorf("seed for %q has base %d, the bag %d partitions", name, seed.Base, spec.Partitions)
		case len(seed.Splits) > 0:
			return nil, fmt.Errorf("seed for %q splits %d base partitions; a seed may only isolate keys", name, len(seed.Splits))
		}
		if err := seed.Validate(); err != nil {
			return nil, fmt.Errorf("seed for %q: %w", name, err)
		}
		spec.seed = seed.Clone()
		spec.seed.Bag = spec.Name
	}
	return out, nil
}

// appClaims lists the physical bag names a job owns, which are exactly
// the names its release deletes: every declared bag and work bag by name,
// and as a prefix each stem its runtime names grow from — a partitioned
// edge's base partitions "<bag>.p…" and isolated heavy-hitter bags
// "<bag>.h…", a merged output's clone partials "<out>~p…". Every job,
// raw or namespaced, registers this list, so a declared name under a
// stem, the job's own or a live neighbour's, is refused at submission
// instead of deleted by the stem's release.
func appClaims(app *App) sched.NameClaims {
	var c sched.NameClaims
	for _, b := range app.Bags() {
		c.Exact = append(c.Exact, b)
		if app.BagSpecFor(b).Partitions > 0 {
			c.Prefix = append(c.Prefix, b+".p", b+".h")
		}
	}
	for _, t := range app.Tasks() {
		spec := app.Task(t)
		if spec.requiresMerge() {
			c.Prefix = append(c.Prefix, spec.Outputs[0]+"~p")
		}
	}
	wb := newWorkBags(nil, app.Name())
	c.Exact = append(c.Exact, wb.readyName(), wb.runningName(), wb.doneName())
	return c
}

// ---- submission and supervision ----

// SubmitJob starts a job on the cluster: it validates the application
// graph and its (namespaced) bag names against every live job, then starts
// the job's master on every compute node. Source bags must be loaded and sealed — under the names
// JobHandle.Bag reports — before the job's tasks consume them; loading
// before SubmitJob is the safe order.
func (c *Cluster) SubmitJob(ctx context.Context, app *App, cfg JobConfig) (*JobHandle, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if cfg.Name == "" {
		cfg.Name = app.Name()
	}
	prefix := ""
	if !cfg.Raw {
		prefix = cfg.Name
	}
	nsApp, err := jobApp(app, prefix, cfg.Seeds)
	if err != nil {
		return nil, fmt.Errorf("core: job %q: %w", cfg.Name, err)
	}
	if err := nsApp.Validate(); err != nil {
		return nil, fmt.Errorf("core: job %q: %w", cfg.Name, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.reg.Submit(cfg.Name, appClaims(nsApp), cfg.Weight); err != nil {
		return nil, err
	}
	c.ensurePoolLocked()
	h := &JobHandle{
		c:      c,
		id:     cfg.Name,
		prefix: prefix,
		app:    nsApp,
		swap:   make(chan struct{}),
		state:  sched.StateRunning,
		done:   make(chan struct{}),
	}
	h.master = c.newJobMaster(h)
	c.jobs[h.id] = h
	if cfg.Raw {
		c.primary = h
	}
	c.leases.Add(h.id, c.reg.Weight(h.id))
	for _, n := range c.computes {
		n.Attach(h.id, h.app, h.master.WorkBags(), h.master)
	}
	h.master.Start(ctx)
	go c.supervise(h)
	return h, nil
}

// newJobMaster builds a master for the job behind a job-scoped control
// adapter — for its first start and for every recovery alike.
func (c *Cluster) newJobMaster(h *JobHandle) *Master {
	return newMaster(h.app, c.store, &jobControl{c: c, job: h.id}, c.obs, c.cfg.Master, c.cfg.Node.beat())
}

// CrashMaster stops the job's master, preserving its durable state in the
// work bags. Compute nodes keep executing tasks from the ready bag.
func (h *JobHandle) CrashMaster() { h.Master().Stop() }

// RecoverMaster starts a fresh master for the job that rebuilds its
// execution-graph state by replaying the work bags (§4.4: "when the
// application master fails, we restart it and replay the done work
// bag"). The successor knows only what the bags say: node liveness comes
// from the replayed running bag as for any master, so a node that died
// holding work, whether or not the predecessor saw it, is declared dead
// once it has been silent for the failure timeout. It returns nil for a
// job that is not running.
func (h *JobHandle) RecoverMaster(ctx context.Context) *Master {
	c := h.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if h.State() != sched.StateRunning {
		return nil
	}
	m := c.newJobMaster(h)
	h.mu.Lock()
	h.master = m
	oldSwap := h.swap
	h.swap = make(chan struct{})
	h.mu.Unlock()
	close(oldSwap) // wake the supervisor onto the new master
	// Point compute nodes' control plane at the new master.
	for _, n := range c.computes {
		n.setMaster(h.id, m)
	}
	m.Start(ctx)
	return m
}

// supervise waits for the job's (current) master to complete the job,
// surviving master crash/recovery swaps, then finalizes it.
func (c *Cluster) supervise(h *JobHandle) {
	for {
		h.mu.Lock()
		m := h.master
		swap := h.swap
		h.mu.Unlock()
		select {
		case <-m.Done():
			c.finalizeJob(h, m.Err())
			return
		case <-swap:
			// Master replaced (recovery); watch the successor.
		case <-c.poolCtx.Done():
			return
		}
	}
}

// finalizeJob releases a completed job's slots and name bindings; its bags
// stay until Discard or Reset. The job reports completion only after the
// nodes have let go of its ready bag: a caller that Waits, Resets and
// resubmits under the same name must not have its successor's freshly
// pushed blueprints claimed through this job's bindings.
func (c *Cluster) finalizeJob(h *JobHandle, jobErr error) {
	c.mu.Lock()
	nodes := make([]*ComputeNode, 0, len(c.computes))
	for _, n := range c.computes {
		nodes = append(nodes, n)
	}
	c.leases.Remove(h.id)
	c.wake.raise() // the finished job's share went to its neighbors
	c.reg.Finish(h.id)
	c.mu.Unlock()
	for _, n := range nodes {
		n.Detach(h.id)
	}
	if jobErr != nil {
		// A failed job's workers will never be rescheduled; reap them so
		// their slots return to the pool.
		for _, n := range nodes {
			n.KillJob(h.id)
		}
	}
	h.finish(jobErr)
}

// schedLoop asks over-share jobs' masters to yield clone workers toward
// starved jobs' deficits on every raise of the wake, taken before the pass
// so that a raise mid-pass sends it round again. It makes no storage call
// and raises nothing; yields in flight cover the plans of later passes.
func (c *Cluster) schedLoop() {
	for {
		woken := c.wake.wait()
		for id, n := range c.leases.Plan() {
			if h := c.Job(id); h != nil {
				if y := h.Master().YieldClones(n); y > 0 {
					c.obs.Counter("hurricane_sched_preemptions_total", "job", id).Inc()
					c.obs.Emit(obs.EvLeasePreempt, id, id, fmt.Sprintf("yield=%d", y))
				}
			}
		}
		select {
		case <-c.poolCtx.Done():
			return
		case <-woken:
		}
	}
}

// ---- per-job control adapter ----

// jobControl is the master's control-plane authority over the compute
// nodes, scoped to its job: kills and yields reach only the job's workers,
// and the mitigation budget (LeaseSlots) is capped by the job's fair-share
// lease so its clones cannot starve neighbors.
type jobControl struct {
	c   *Cluster
	job string
}

// KillTask terminates the job's running workers of (spec, epoch) on every
// live compute node.
func (jc *jobControl) KillTask(spec string, epoch int) {
	jc.c.killTask(jc.job, spec, epoch)
}

// FreeSlots reports the idle worker slots cluster-wide, shared by all
// jobs.
func (jc *jobControl) FreeSlots() int { return jc.c.FreeSlots() }

// TotalSlots reports the total worker slots cluster-wide.
func (jc *jobControl) TotalSlots() int { return jc.c.TotalSlots() }

// pushed counts a blueprint the master inserted into the ready bag as
// lease demand and wakes the task managers to claim it.
func (jc *jobControl) pushed() {
	jc.c.leases.MoveDemand(jc.job, 1, sched.Delta)
	jc.c.wake.raise()
}

// seedDemand sets the job's lease demand to what the ready bag holds,
// bracketing its Sample with the job's claim count so that a claim during
// the Sample is not counted twice, then wakes the task managers: the bag
// may hold blueprints a predecessor pushed.
func (jc *jobControl) seedDemand(ctx context.Context, ready string) error {
	seed := jc.c.leases.Stats(jc.job).Claims
	st, err := jc.c.store.Sample(ctx, ready)
	if err != nil {
		return fmt.Errorf("core: seeding lease demand from %s: %w", ready, err)
	}
	jc.c.leases.MoveDemand(jc.job, int(st.RemainingChunks()), seed)
	jc.c.wake.raise()
	return nil
}

// YieldWorker asks the named compute node to preempt the job's worker
// identified by blueprint ID at its next chunk boundary (fair-share clone
// preemption). It reports whether the worker was found.
func (jc *jobControl) YieldWorker(node, bpID string) bool {
	return jc.c.yieldWorker(jc.job, node, bpID)
}

// LeaseSlots reports the job's clone budget this round, which the master
// forwards into telemetry snapshots so ctrl.Arbitrate caps cloning at it.
func (jc *jobControl) LeaseSlots() int {
	return jc.c.leases.CloneBudget(jc.job, jc.c.FreeSlots())
}
