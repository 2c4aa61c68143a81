package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/bag"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/shuffle"
)

// JobConfig tunes one job submission to a multi-job cluster.
type JobConfig struct {
	// Name uniquely identifies the job within the cluster. Empty
	// defaults to the application name. Two live jobs cannot share a
	// name.
	Name string
	// Prefix namespaces the job's bags: every declared bag name (and
	// every name derived from one — physical partitions, work bags,
	// clone partials) is stored as "<prefix>/<name>", so
	// concurrent jobs built from the same application graph cannot
	// collide. Empty defaults to Name. Load source bags and read outputs
	// through JobHandle.Bag, which maps declared names to physical ones.
	Prefix string
	// Raw disables namespacing: bags keep their declared names.
	// Cluster.Run submits this way so single-job applications keep the
	// paper's flat naming. Submission still validates that the raw names
	// cannot collide with any live job's.
	Raw bool
	// Weight is the job's fair-share weight (default
	// sched.Config.DefaultWeight). A weight-2 job is entitled to twice
	// the worker slots of a weight-1 job under contention.
	Weight int
	// Retain keeps the job's work bags after completion
	// (Cluster.Run sets it; tests replay them). Without it the scheduler
	// garbage collects them when the job finishes; data bags always
	// remain until JobHandle.Discard.
	Retain bool
	// Master overrides the cluster-wide MasterConfig for this job (nil
	// uses the cluster default). This is how co-running jobs get
	// different mitigation policies.
	Master *MasterConfig
	// TraceID is the causal trace ID minted by the submitter (for remote
	// submissions, at `hurricane-run -submit` before the request crosses
	// the wire). When set, every trace event and the execution profile of
	// this job carry it, and the cluster's debug endpoints resolve
	// ?trace=<id> back to the job — which is how a submitter that never
	// learns the server-side job name fetches the job's timeline and
	// EXPLAIN ANALYZE across the process boundary.
	TraceID string
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
	State   string // queued | running | done | failed
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
	cfg    JobConfig
	subCtx context.Context // submission context; used if admitted later

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
	js := JobStats{
		State:   state.String(),
		Weight:  h.c.reg.Weight(h.id),
		Share:   h.c.leases.Share(h.id),
		Running: h.c.leases.Running(h.id),
	}
	if m != nil {
		js.Master = m.Stats()
	}
	return js
}

// Master returns the job's current application master (nil while the job
// is queued). After completion it still holds the final masters' state —
// the streaming subsystem reads EdgeMemory from it to warm-start the next
// window.
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
// attribution. Nil while the job is still queued; partial while it runs;
// complete once Done.
func (h *JobHandle) Profile() *obs.Profile {
	m := h.Master()
	if m == nil {
		return nil
	}
	return m.Profile()
}

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
// when none was registered. Empty while the job is still queued.
func (h *JobHandle) Explain() string {
	p := h.Profile()
	if p == nil {
		return ""
	}
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
// reuse the names. It fails while the job is still queued or running.
func (h *JobHandle) Discard(ctx context.Context) error {
	h.mu.Lock()
	state := h.state
	h.mu.Unlock()
	if state == sched.StateQueued || state == sched.StateRunning {
		return fmt.Errorf("core: job %q is %s; discard after completion", h.id, state)
	}
	// After Reset the job's name (and namespace) may be owned by a live
	// successor — the streaming subsystem's window retry. A stale handle's
	// Discard would wipe that successor's bags mid-run and release its
	// claims; only the currently registered handle may destroy the name.
	h.c.mu.Lock()
	cur := h.c.jobs[h.id]
	h.c.mu.Unlock()
	if cur != h {
		return fmt.Errorf("core: job %q handle is stale (name released or reclaimed); discard through the live handle", h.id)
	}
	store := h.c.store
	if h.prefix != "" {
		// Everything the job ever touched lives under its namespace —
		// including runtime-derived names no caller could enumerate.
		if err := store.DeletePrefix(ctx, h.prefix+"/"); err != nil {
			return err
		}
	} else {
		for _, b := range h.app.Bags() {
			if h.app.BagSpecFor(b).Source {
				if err := store.Delete(ctx, b); err != nil {
					return err
				}
			}
		}
		if err := scrubDerivedBags(ctx, store, h.app); err != nil {
			return err
		}
	}
	h.c.reg.Release(h.id)
	h.c.mu.Lock()
	delete(h.c.jobs, h.id)
	if h.c.primary == h {
		h.c.primary = nil
	}
	h.c.mu.Unlock()
	return nil
}

// Reset prepares a completed — typically failed — namespaced job for
// resubmission under the same name: every bag the job derived is deleted
// (outputs, partitioned edges with their seeded isolation bags and
// sketches, merge partials, work bags), its source bags are
// rewound so their consumed chunks replay from the start, and the job's
// registration and name claims are released. The streaming subsystem's
// window retry is the intended caller: rewinding instead of re-ingesting
// preserves exactly-once per window without a second copy of the input.
// The handle is dead afterwards; resubmit the application with SubmitJob.
// Raw jobs cannot be reset (their sources may be shared), and neither can
// jobs still queued or running.
func (h *JobHandle) Reset(ctx context.Context) error {
	h.mu.Lock()
	state := h.state
	h.mu.Unlock()
	if state == sched.StateQueued || state == sched.StateRunning {
		return fmt.Errorf("core: job %q is %s; reset after completion", h.id, state)
	}
	if h.prefix == "" {
		return fmt.Errorf("core: job %q is raw (no namespace); reset is only safe for namespaced jobs", h.id)
	}
	// Same staleness guard as Discard: after a previous Reset released
	// the name, a successor may own it — rewinding its in-use sources and
	// scrubbing its derived bags mid-run would corrupt the live job.
	h.c.mu.Lock()
	cur := h.c.jobs[h.id]
	h.c.mu.Unlock()
	if cur != h {
		return fmt.Errorf("core: job %q handle is stale (name released or reclaimed); reset through the live handle", h.id)
	}
	store := h.c.store
	for _, b := range h.app.Bags() {
		if h.app.BagSpecFor(b).Source {
			if err := store.Rewind(ctx, b); err != nil {
				return err
			}
		}
	}
	if err := scrubDerivedBags(ctx, store, h.app); err != nil {
		return err
	}
	h.c.reg.Release(h.id)
	h.c.mu.Lock()
	if h.c.jobs[h.id] == h {
		delete(h.c.jobs, h.id)
	}
	h.c.mu.Unlock()
	return nil
}

// scrubDerivedBags deletes every bag a job derives from its declared
// graph: non-source data bags, a partitioned edge's runtime bags
// (base partitions, isolated heavy-hitter bags) and its storage-side
// sketch state — which plain Delete does not touch
// and which would otherwise seed a name-reusing successor with this
// job's cumulative producer statistics — plus merge partials and the
// work bags. Shared by Discard (which also deletes the source bags) and
// Reset (which rewinds them instead), so a new kind of runtime-derived
// bag only has to be added here.
func scrubDerivedBags(ctx context.Context, store *bag.Store, app *App) error {
	for _, b := range app.Bags() {
		spec := app.BagSpecFor(b)
		if spec.Source {
			continue
		}
		if err := store.Delete(ctx, b); err != nil {
			return err
		}
		if spec.Partitions > 0 {
			if err := store.DeletePrefix(ctx, b+".p"); err != nil {
				return err
			}
			if err := store.DeletePrefix(ctx, b+".h"); err != nil {
				return err
			}
			if err := store.DeleteSketch(ctx, b); err != nil {
				return err
			}
		}
	}
	for _, t := range app.Tasks() {
		spec := app.Task(t)
		if spec.requiresMerge() {
			if err := store.DeletePrefix(ctx, spec.Outputs[0]+"~p"); err != nil {
				return err
			}
		}
	}
	wb := newWorkBags(store, app.Name(), nil)
	for _, n := range []string{wb.readyName(), wb.runningName(), wb.doneName()} {
		if err := store.Delete(ctx, n); err != nil {
			return err
		}
	}
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

// appClaims enumerates the physical bag names a job may touch: declared
// bags and work bags exactly, plus prefixes covering runtime-derived
// names (base partitions "<bag>.p…", isolated heavy-hitter bags
// "<bag>.h…", clone partial bags "<out>~p…"). Raw
// jobs register these with the registry, which rejects a submission
// whose claims overlap a live job's; namespaced jobs register their
// whole "<prefix>/" subtree instead (Discard sweeps exactly that), with
// the detailed claims still used for within-job validation.
func appClaims(app *App) sched.NameClaims {
	var c sched.NameClaims
	for _, b := range app.Bags() {
		c.Exact = append(c.Exact, b)
		if app.BagSpecFor(b).Partitions > 0 {
			c.Derived = append(c.Derived, b+".p", b+".h")
		}
	}
	for _, t := range app.Tasks() {
		spec := app.Task(t)
		if spec.requiresMerge() {
			c.Derived = append(c.Derived, spec.Outputs[0]+"~p")
		}
	}
	wb := newWorkBags(nil, app.Name(), nil)
	c.Exact = append(c.Exact, wb.readyName(), wb.runningName(), wb.doneName())
	return c
}

// ---- submission and supervision ----

// SubmitJob admits a job into the cluster: it validates the application
// graph and its (namespaced) bag names against every live job, then
// either starts it immediately or queues it behind the concurrency
// limit. Source bags must be loaded and sealed — under the names
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
		prefix = cfg.Prefix
		if prefix == "" {
			prefix = cfg.Name
		}
	}
	nsApp, err := jobApp(app, prefix, cfg.Seeds)
	if err != nil {
		return nil, fmt.Errorf("core: job %q: %w", cfg.Name, err)
	}
	if err := nsApp.Validate(); err != nil {
		return nil, fmt.Errorf("core: job %q: %w", cfg.Name, err)
	}
	// Within-job validation always runs on the detailed claims: a bag
	// that shadows a sibling's derived names (declaring both partitioned
	// "x" and plain "x.p0") is a latent cross-talk bug namespacing can't
	// fix.
	claims := appClaims(nsApp)
	if msg, bad := claims.SelfConflict(); bad {
		return nil, fmt.Errorf("core: job %q: %s", cfg.Name, msg)
	}
	// Cross-job claims: a namespaced job owns its entire "<prefix>/"
	// subtree — Discard sweeps exactly that prefix, so the claim must
	// cover it all (including a raw job's bag that merely starts with
	// the prefix, which the detailed claims would miss).
	if prefix != "" {
		claims = sched.NameClaims{Prefix: []string{prefix + "/"}}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	// Namespaces must not nest: JobHandle.Discard deletes the whole
	// "<prefix>/" subtree, which must never reach into a sibling job.
	// (The registry's prefix-claim overlap check would also catch this;
	// the explicit check names both jobs in the error.)
	for id, other := range c.jobs {
		if prefix != "" && other.prefix != "" &&
			(strings.HasPrefix(prefix, other.prefix+"/") || strings.HasPrefix(other.prefix, prefix+"/")) {
			return nil, fmt.Errorf("core: job %q namespace %q nests inside job %q namespace %q",
				cfg.Name, prefix, id, other.prefix)
		}
	}
	// Register the causal trace ID before admission: the scheduler's own
	// events (LeaseGrant at admission) must already carry it.
	if cfg.TraceID != "" {
		c.obs.Tracer().SetJobTrace(cfg.Name, cfg.TraceID)
	}
	start, err := c.reg.Submit(cfg.Name, claims, cfg.Weight)
	if err != nil {
		return nil, err
	}
	h := &JobHandle{
		c:      c,
		id:     cfg.Name,
		prefix: prefix,
		app:    nsApp,
		cfg:    cfg,
		subCtx: ctx,
		swap:   make(chan struct{}),
		state:  sched.StateQueued,
		done:   make(chan struct{}),
	}
	c.jobs[h.id] = h
	if cfg.Raw {
		c.primary = h
	}
	if start {
		c.startJobLocked(ctx, h)
	}
	return h, nil
}

// newJobMaster builds a master for the job behind a job-scoped control
// adapter — for its first start and for every recovery alike.
func (c *Cluster) newJobMaster(h *JobHandle) *Master {
	mcfg := c.cfg.Master
	if h.cfg.Master != nil {
		mcfg = *h.cfg.Master
	}
	mcfg.Job = h.id
	mcfg.Obs = c.obs
	mcfg.TraceID = h.cfg.TraceID
	return newMaster(h.app, c.store, &jobControl{c: c, job: h.id}, c.wake, mcfg)
}

// startJobLocked moves an admitted job into execution: build its master,
// bind it to every compute node, and begin supervision. Caller holds
// c.mu.
func (c *Cluster) startJobLocked(ctx context.Context, h *JobHandle) {
	c.ensurePoolLocked()
	m := c.newJobMaster(h)
	c.leases.Add(h.id, c.reg.Weight(h.id))
	h.mu.Lock()
	h.master = m
	h.state = sched.StateRunning
	h.mu.Unlock()
	for _, n := range c.computes {
		n.Attach(h.id, h.app, m.WorkBags(), m)
	}
	c.wake.raise() // a resumed job's ready bag may already hold blueprints
	m.Start(ctx)
	go c.supervise(h)
}

// CrashMaster stops the job's master, preserving its durable state in the
// work bags. Compute nodes keep executing tasks from the ready bag.
func (h *JobHandle) CrashMaster() error {
	m := h.Master()
	if m == nil {
		return fmt.Errorf("core: job %q has no master running", h.id)
	}
	m.Stop()
	return nil
}

// RecoverMaster starts a fresh master for the job that rebuilds its
// execution-graph state by replaying the work bags (§4.4: "when the
// application master fails, we restart it and replay the done work
// bag"). It returns nil for a job that is not running.
func (h *JobHandle) RecoverMaster(ctx context.Context) *Master {
	c := h.c
	c.mu.Lock()
	defer c.mu.Unlock()
	h.mu.Lock()
	old, state := h.master, h.state
	h.mu.Unlock()
	if state != sched.StateRunning {
		return nil
	}
	m := c.newJobMaster(h)
	// Carry over node liveness. A node known dead must have its recovery
	// re-run: the previous master may have crashed between detecting the
	// failure and completing (or even starting) the recovery, and the
	// pending-recovery queue died with it. recoverNode derives the
	// affected tasks from the running work bag, so re-running it is safe
	// whether the old master finished the recovery or never began.
	old.mu.Lock()
	var dead []string
	for n, ns := range old.nodes {
		copied := *ns
		m.nodes[n] = &copied
		if ns.dead {
			dead = append(dead, n)
		}
	}
	old.mu.Unlock()
	for _, n := range dead {
		m.enqueueRecovery(n)
	}
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

// finalizeJob releases a completed job's slots and name bindings, garbage
// collects the job's work bags unless retained, and admits queued jobs
// the freed concurrency slot allows. The job reports completion only
// after the nodes have let go of its ready bag and after the collection:
// a caller that Waits, Resets and resubmits under the same name must not
// have its successor's freshly pushed blueprints claimed through this
// job's bindings or deleted by its late collection.
func (c *Cluster) finalizeJob(h *JobHandle, jobErr error) {
	c.mu.Lock()
	nodes := make([]*ComputeNode, 0, len(c.computes))
	for _, n := range c.computes {
		nodes = append(nodes, n)
	}
	c.leases.Remove(h.id)
	c.wake.raise() // the finished job's share went to its neighbors
	admit := c.reg.Finish(h.id, jobErr != nil)
	var toStart []*JobHandle
	for _, id := range admit {
		if nh := c.jobs[id]; nh != nil {
			toStart = append(toStart, nh)
		}
	}
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
	if !h.cfg.Retain {
		c.gcJob(h)
	}
	h.finish(jobErr)
	c.mu.Lock()
	for _, nh := range toStart {
		c.startJobLocked(nh.subCtx, nh)
	}
	c.mu.Unlock()
}

// gcJob garbage collects a finished job's scheduling state: the work
// bags. Data bags stay until
// JobHandle.Discard. Best-effort: the job is already complete, and a
// down storage node must not fail it retroactively.
func (c *Cluster) gcJob(h *JobHandle) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wb := newWorkBags(c.store, h.app.Name(), nil)
	for _, n := range []string{wb.readyName(), wb.runningName(), wb.doneName()} {
		_ = c.store.Delete(ctx, n)
	}
}

// schedPass is one scheduling tick: sample every running job's unclaimed
// ready blueprints into the lease allocator's demand signal, then run
// the preemption plan — asking over-share jobs' masters to yield clone
// workers toward starved jobs' deficits.
func (c *Cluster) schedPass() {
	type item struct {
		h     *JobHandle
		m     *Master
		ready string
	}
	c.mu.Lock()
	items := make([]item, 0, len(c.jobs))
	for _, h := range c.jobs {
		h.mu.Lock()
		if h.state == sched.StateRunning && h.master != nil {
			items = append(items, item{h, h.master, h.master.WorkBags().readyName()})
		}
		h.mu.Unlock()
	}
	c.mu.Unlock()
	if len(items) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(c.poolCtx, 5*time.Second)
	defer cancel()
	moved := false
	for _, it := range items {
		pending := 0
		if st, err := c.store.Sample(ctx, it.ready); err == nil {
			pending = int(st.RemainingChunks())
		}
		moved = c.leases.SetDemand(it.h.id, pending) || moved
	}
	if c.leases.FairShare() {
		if moved && len(items) > 1 {
			c.wake.raise() // who is starved changed: a denied claim may pass now
		}
		plan := c.leases.Plan()
		for _, it := range items {
			if n := plan[it.h.id]; n > 0 {
				c.obs.Counter("hurricane_sched_preemptions_total", "job", it.h.id).Inc()
				c.obs.Emit(obs.EvLeasePreempt, it.h.id, it.h.id, fmt.Sprintf("yield=%d", n))
				it.m.YieldClones(n)
			}
		}
	}
}

func (c *Cluster) schedLoop() {
	t := time.NewTicker(c.cfg.Sched.Interval)
	defer t.Stop()
	for {
		select {
		case <-c.poolCtx.Done():
			return
		case <-t.C:
			c.schedPass()
		}
	}
}

// ---- per-job control adapter ----

// jobControl is the ClusterControl a job's master sees: kills are scoped
// to the job's workers, and the mitigation budget (LeaseSlots) is capped
// by the job's fair-share lease so its clones cannot starve neighbors.
type jobControl struct {
	c   *Cluster
	job string
}

// KillTask implements ClusterControl, scoped to the owning job.
func (jc *jobControl) KillTask(spec string, epoch int) {
	jc.c.killTask(jc.job, spec, epoch)
}

// FreeSlots implements ClusterControl: physical idle slots, shared by
// all jobs.
func (jc *jobControl) FreeSlots() int { return jc.c.FreeSlots() }

// TotalSlots implements ClusterControl.
func (jc *jobControl) TotalSlots() int { return jc.c.TotalSlots() }

// YieldWorker implements ClusterControl, scoped to the owning job.
func (jc *jobControl) YieldWorker(node, bpID string) bool {
	return jc.c.yieldWorker(jc.job, node, bpID)
}

// LeaseSlots implements LeaseInfo: the job's clone budget this round.
func (jc *jobControl) LeaseSlots() int {
	return jc.c.leases.CloneBudget(jc.job, jc.c.FreeSlots())
}
