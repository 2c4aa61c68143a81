package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/bag"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/transport"
)

// ClusterConfig describes an embedded Hurricane cluster: in-process
// storage and compute nodes connected by the in-process transport. This is
// the deployment used by the test suite, the examples, and the real-engine
// benchmarks; cmd/hurricane-storage and cmd/hurricane-run assemble the
// same pieces over TCP.
type ClusterConfig struct {
	// StorageNodes is the number of storage nodes (default 4).
	StorageNodes int
	// ComputeNodes is the number of compute nodes (default 4).
	ComputeNodes int
	// SlotsPerNode is the number of worker slots per compute node
	// (default 2).
	SlotsPerNode int
	// ChunkSize overrides the chunk size (default 64 KiB embedded; the
	// paper uses 4 MB at cluster scale).
	ChunkSize int
	// Replication is the storage replication factor (default 1 = off).
	Replication int
	// DiskDir, if set, backs bags with files under this directory.
	DiskDir string

	// Node and Master tuning. Every job's master runs under Master.
	Node   NodeConfig
	Master MasterConfig

	// Sched tunes the multi-job scheduler (fair-share slot leasing).
	Sched sched.Config

	// Obs, when set, is the observer every layer of the cluster reports
	// into. When nil (the default) the cluster creates its own with
	// obs.DefaultTraceCap: observability is always on.
	Obs *obs.Observer
}

func (c *ClusterConfig) fill() {
	if c.StorageNodes <= 0 {
		c.StorageNodes = 4
	}
	if c.ComputeNodes <= 0 {
		c.ComputeNodes = 4
	}
	if c.SlotsPerNode <= 0 {
		c.SlotsPerNode = 2
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 64 << 10
	}
	c.Node.fill()
}

// Cluster is an embedded Hurricane cluster. One cluster executes any
// number of concurrent jobs (SubmitJob); compute nodes are shared, with
// worker slots arbitrated between jobs by fair-share leasing
// (internal/sched). Cluster.Run remains the single-job convenience
// path: a Submit-and-Wait with namespacing disabled.
type Cluster struct {
	cfg      ClusterConfig
	inproc   *transport.InProc
	store    *bag.Store
	storages map[string]*storage.Node

	// poolCtx bounds the shared compute pool and the scheduler loop; it
	// outlives any single job and is cancelled by Shutdown.
	poolCtx    context.Context
	poolCancel context.CancelFunc

	reg    *sched.Registry
	leases *sched.Leases
	wake   *wake // shared by the nodes' claim loops and the jobs' work bags
	obs    *obs.Observer

	mu          sync.Mutex
	computes    map[string]*ComputeNode
	jobs        map[string]*JobHandle
	primary     *JobHandle // most recent Raw submission: what Wait and Master read
	poolStarted bool
	nextComp    int
	nextStor    int
}

func newCluster(cfg ClusterConfig) *Cluster {
	ctx, cancel := context.WithCancel(context.Background())
	o := cfg.Obs
	if o == nil {
		o = obs.New(obs.DefaultTraceCap)
	}
	cfg.Obs = o
	c := &Cluster{
		cfg:        cfg,
		obs:        o,
		storages:   make(map[string]*storage.Node),
		computes:   make(map[string]*ComputeNode),
		jobs:       make(map[string]*JobHandle),
		poolCtx:    ctx,
		poolCancel: cancel,
		reg:        sched.NewRegistry(),
		leases:     sched.NewLeases(cfg.Sched.DisableFairShare),
		wake:       newWake(),
	}
	c.reg.Bind(o)
	c.leases.Bind(o)
	return c
}

// NewCluster provisions storage nodes and a bag store per the config.
// Compute nodes are created when the first job is submitted.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg.fill()
	c := newCluster(cfg)
	c.inproc = transport.NewInProc()
	c.inproc.Bind(transport.NewMeter(c.obs, "inproc", "", 0))
	names := make([]string, 0, cfg.StorageNodes)
	for i := 0; i < cfg.StorageNodes; i++ {
		name := fmt.Sprintf("storage-%d", i)
		var opts []storage.Option
		if cfg.DiskDir != "" {
			opts = append(opts, storage.WithDir(fmt.Sprintf("%s/%s", cfg.DiskDir, name)))
		}
		node := storage.NewNode(name, opts...)
		node.Bind(c.obs, 0)
		c.storages[name] = node
		c.inproc.Register(name, node)
		names = append(names, name)
	}
	c.nextStor = cfg.StorageNodes
	store, err := bag.NewStore(bag.Config{
		Nodes:       names,
		Client:      c.inproc,
		ChunkSize:   cfg.ChunkSize,
		Replication: cfg.Replication,
	})
	if err != nil {
		return nil, err
	}
	c.store = store
	return c, nil
}

// NewClusterOverStore builds a cluster whose storage tier is external —
// for example hurricane-storage servers reached over TCP. Only compute
// nodes and the application masters run in this process; StorageNodes,
// Replication and ChunkSize in cfg are ignored (they are properties of
// the supplied store). Storage crash injection is
// unavailable in this mode.
func NewClusterOverStore(store *bag.Store, cfg ClusterConfig) *Cluster {
	cfg.fill()
	c := newCluster(cfg)
	c.store = store
	return c
}

// Store exposes the cluster's bag store (to load source bags and read
// results).
func (c *Cluster) Store() *bag.Store { return c.store }

// Observer exposes the cluster's observer: the metrics registry and
// event trace every layer reports into.
func (c *Cluster) Observer() *obs.Observer { return c.obs }

// Trace returns the cluster-wide skew-event trace, oldest first,
// across all jobs.
func (c *Cluster) Trace() []obs.Event {
	return c.obs.Tracer().Events("", "")
}

// Master returns the current application master of the most recent Raw
// submission — what Start, Run and a compiled plan's Run make — or nil
// before one. Every job carries its own master; reach it, and crash or
// recover it, through the JobHandle.
func (c *Cluster) Master() *Master {
	c.mu.Lock()
	h := c.primary
	c.mu.Unlock()
	if h == nil {
		return nil
	}
	return h.Master()
}

// Job returns the handle of a submitted job, or nil.
func (c *Cluster) Job(name string) *JobHandle {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobs[name]
}

// ensurePoolLocked lazily provisions the shared compute pool and the
// scheduler loop. Caller holds c.mu.
func (c *Cluster) ensurePoolLocked() {
	if c.poolStarted {
		return
	}
	c.poolStarted = true
	for i := 0; i < c.cfg.ComputeNodes; i++ {
		name := fmt.Sprintf("compute-%d", i)
		node := newComputeNode(name, c.cfg.SlotsPerNode, c.store, c.leases, c.wake, c.obs, c.cfg.Node)
		c.computes[name] = node
		node.Start(c.poolCtx)
	}
	c.nextComp = c.cfg.ComputeNodes
	c.leases.SetTotal(c.totalSlotsLocked())
	if c.leases.FairShare() {
		go c.schedLoop()
	}
}

// killTask terminates the job's running workers of (spec, epoch) on every
// live compute node.
func (c *Cluster) killTask(job, spec string, epoch int) {
	c.mu.Lock()
	nodes := make([]*ComputeNode, 0, len(c.computes))
	for _, n := range c.computes {
		nodes = append(nodes, n)
	}
	c.mu.Unlock()
	for _, n := range nodes {
		n.KillTask(job, spec, epoch)
	}
}

// yieldWorker forwards a fair-share preemption request to the named node.
func (c *Cluster) yieldWorker(job, node, bpID string) bool {
	c.mu.Lock()
	n := c.computes[node]
	c.mu.Unlock()
	if n == nil {
		return false
	}
	return n.Yield(job, bpID)
}

// FreeSlots counts idle worker slots. Draining nodes claim nothing, so
// their slots are not counted.
func (c *Cluster) FreeSlots() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	free := 0
	for _, n := range c.computes {
		if n.Draining() {
			continue
		}
		free += n.Slots() - n.Running()
	}
	return free
}

// TotalSlots counts the worker slots of non-draining nodes.
func (c *Cluster) TotalSlots() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totalSlotsLocked()
}

func (c *Cluster) totalSlotsLocked() int {
	total := 0
	for _, n := range c.computes {
		if n.Draining() {
			continue
		}
		total += n.Slots()
	}
	return total
}

// ---- lifecycle ----

// Start submits the app with no bag namespacing — the paper's single-job
// deployment — and begins execution.
// Source bags must be loaded and sealed beforehand. It excludes no other
// job: SubmitJob may run further jobs alongside it.
func (c *Cluster) Start(ctx context.Context, app *App) error {
	_, err := c.SubmitJob(ctx, app, JobConfig{Raw: true})
	return err
}

// Wait blocks until the most recent Raw submission completes and returns
// its error.
func (c *Cluster) Wait(ctx context.Context) error {
	c.mu.Lock()
	h := c.primary
	c.mu.Unlock()
	if h == nil {
		return fmt.Errorf("core: no app running")
	}
	return h.Wait(ctx)
}

// Run starts the app and waits for completion — a Submit-and-Wait over
// the multi-job scheduler.
func (c *Cluster) Run(ctx context.Context, app *App) error {
	if err := c.Start(ctx, app); err != nil {
		return err
	}
	return c.Wait(ctx)
}

// Shutdown stops every job's master, all compute nodes, and the
// scheduler. Workers still running are killed — a job that has not
// completed by Shutdown never will, so draining could wait forever on a
// worker whose input never arrives.
func (c *Cluster) Shutdown() {
	c.mu.Lock()
	nodes := make([]*ComputeNode, 0, len(c.computes))
	for _, n := range c.computes {
		nodes = append(nodes, n)
	}
	masters := make([]*Master, 0, len(c.jobs))
	for _, h := range c.jobs {
		masters = append(masters, h.Master())
	}
	c.mu.Unlock()
	for _, m := range masters {
		m.Stop()
	}
	for _, n := range nodes {
		n.Crash()
	}
	c.poolCancel()
}

// PoolDone returns a channel closed when the cluster has been shut down
// (compute pool and scheduler cancelled). Long-running drivers layered on
// the cluster — the streaming subsystem's ingestion pump, window
// watchers — select on it so a Shutdown issued mid-stream unblocks them
// instead of deadlocking: a stopped master never closes its job's Done
// channel (stop is deliberate; a successor could still replay the work
// bags), so waiting on a job alone would hang forever.
func (c *Cluster) PoolDone() <-chan struct{} { return c.poolCtx.Done() }

// ---- elasticity and fault injection ----

// AddComputeNode adds a compute node mid-run (§3.4); it joins the shared
// pool and serves every running job.
func (c *Cluster) AddComputeNode(ctx context.Context) (string, error) {
	_ = ctx // the pool context governs node lifetime
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.poolStarted {
		return "", fmt.Errorf("core: no app running")
	}
	name := fmt.Sprintf("compute-%d", c.nextComp)
	c.nextComp++
	node := newComputeNode(name, c.cfg.SlotsPerNode, c.store, c.leases, c.wake, c.obs, c.cfg.Node)
	c.computes[name] = node
	for _, h := range c.jobs {
		h.mu.Lock()
		if h.state == sched.StateRunning {
			node.Attach(h.id, h.app, h.master.WorkBags(), h.master)
		}
		h.mu.Unlock()
	}
	node.Start(c.poolCtx)
	c.leases.SetTotal(c.totalSlotsLocked())
	c.wake.raise() // shares grew: a lease-gated node may claim now
	return name, nil
}

// RemoveComputeNode gracefully removes a compute node: it stops claiming
// tasks and the call returns after its current workers complete. The
// node leaves the slot accounting immediately but stays visible to
// recovery kill sweeps until its last worker has stopped — a failure
// recovery racing the removal must still be able to kill the draining
// node's stale-epoch workers.
func (c *Cluster) RemoveComputeNode(name string) error {
	c.mu.Lock()
	node, ok := c.computes[name]
	if ok {
		node.BeginDrain()
		c.leases.SetTotal(c.totalSlotsLocked())
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: unknown compute node %q", name)
	}
	node.Stop()
	c.mu.Lock()
	delete(c.computes, name)
	c.mu.Unlock()
	return nil
}

// AddStorageNode adds a storage node mid-run (§3.4). New bag handles
// spread data over the enlarged cluster; bags already sealed are resealed
// so their empty share on the new node reports end-of-bag correctly.
func (c *Cluster) AddStorageNode() string {
	if c.inproc == nil {
		return "" // external storage tier (NewClusterOverStore)
	}
	c.mu.Lock()
	name := fmt.Sprintf("storage-%d", c.nextStor)
	c.nextStor++
	var opts []storage.Option
	if c.cfg.DiskDir != "" {
		opts = append(opts, storage.WithDir(fmt.Sprintf("%s/%s", c.cfg.DiskDir, name)))
	}
	node := storage.NewNode(name, opts...)
	node.Bind(c.obs, 0)
	c.storages[name] = node
	c.inproc.Register(name, node)
	c.store.AddNode(name)
	masters := c.runningMastersLocked()
	c.mu.Unlock()
	for _, m := range masters {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := m.ResealAll(ctx)
		cancel()
		if err != nil {
			m.fail(err)
		}
	}
	return name
}

// runningMastersLocked snapshots every running job's master. Caller
// holds c.mu.
func (c *Cluster) runningMastersLocked() []*Master {
	var out []*Master
	for _, h := range c.jobs {
		h.mu.Lock()
		if h.state == sched.StateRunning {
			out = append(out, h.master)
		}
		h.mu.Unlock()
	}
	return out
}

// CrashComputeNode abruptly kills a compute node. Nothing tells the
// masters: each declares the node dead once its heartbeats stop and
// recovers the tasks it held (§4.4).
func (c *Cluster) CrashComputeNode(name string) error {
	c.mu.Lock()
	node, ok := c.computes[name]
	if ok {
		delete(c.computes, name)
		c.leases.SetTotal(c.totalSlotsLocked())
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: unknown compute node %q", name)
	}
	node.Crash()
	return nil
}

// CrashStorageNode makes a storage node unreachable. With replication
// enabled, clients fail over to backups; the master marks the node down in
// the shared store view.
func (c *Cluster) CrashStorageNode(name string) error {
	c.mu.Lock()
	_, ok := c.storages[name]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: unknown storage node %q", name)
	}
	c.inproc.Crash(name)
	c.store.MarkDown(name)
	return nil
}

// ComputeNodeNames lists current compute nodes.
func (c *Cluster) ComputeNodeNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.computes))
	for n := range c.computes {
		out = append(out, n)
	}
	return out
}
