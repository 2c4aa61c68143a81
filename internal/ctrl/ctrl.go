// Package ctrl is Hurricane's adaptive control plane: the telemetry hub
// that turns overload signals, bag depths, and merged edge sketches into
// one versioned cluster Snapshot (and wakes the control loop by Cause), and
// the pluggable mitigation Policies that turn a Snapshot into declarative
// Actions.
//
// The paper's core claim (§2.2) is that one adaptive mechanism family —
// fine-grained cloning plus late binding — tames skew at runtime. The
// built-in mitigation is exactly that: a clone requested by an overloaded
// worker (§4.2), gated by a rate limit, the live-worker cap and Eq. 2, and
// placed by one rule. Following the Reshape/Texera line of work, policies
// run as interchangeable strategies driven by a shared metrics pipeline:
//
//   - the Hub ingests telemetry signals as they arrive (event-driven, not
//     polled), batches them, and builds versioned Snapshots on demand;
//   - the Hub also owns what is known about a partitioned shuffle edge: its
//     last record of every edge (Edges) carries the edge's current map and
//     last merged stats, and EdgeHeat says how hot that makes it. The
//     operator surfaces, the heat alert and every warm start read that one
//     record through that one function;
//   - a Policy inspects a Snapshot and proposes Actions;
//   - Arbitrate resolves conflicts between concurrently proposed Actions
//     (duplicate clones, slot budgets) in one place, instead of implicitly
//     by pass ordering;
//   - the master validates and applies the surviving Actions
//     transactionally against its authoritative task state.
//
// The package deliberately does not import internal/core: policies are
// pure functions over telemetry, unit-testable against synthetic traces
// with no cluster behind them.
package ctrl

import (
	"sort"
	"time"

	"repro/internal/shuffle"
	"repro/internal/sketch"
)

// Config carries the tuning knobs shared by the built-in policies. The
// master derives it from its MasterConfig, so existing knobs keep working.
type Config struct {
	// CloneInterval is the minimum gap between successive clones of one
	// task (the paper sends clone messages at least 2 seconds apart).
	CloneInterval time.Duration
	// StorageBandwidth (bytes/s) estimates the I/O rate used for the T_IO
	// term of the cloning heuristic (Eq. 2). math.Inf(1) prices T_IO at
	// zero, so Eq. 2 accepts every clone whose input has bytes left.
	StorageBandwidth float64
}

// ---- telemetry (snapshot contents) ----

// NodeTel is one compute node's liveness and load. The hub no longer
// builds it (node liveness is the master's own record and no policy reads
// it); the type and Snapshot.Nodes stay only because the frozen benchmark's
// policy probe fills them in by hand and must keep compiling.
type NodeTel struct {
	LastBeat time.Time
	Running  int
	Slots    int
}

// Overload is one overload signal from a compute node: the node was
// CPU-bound while running a worker of the named task and asks for a clone.
// It says that the task wants one, not where it goes (see proposeClone).
type Overload struct {
	Node   string
	Task   string
	Epoch  int
	Worker int
	Merge  bool
	// Inputs are the overloaded worker's input bags (the physical partition
	// bag for a worker of a partitioned consumer).
	Inputs []string
	Busy   float64
}

// TaskTel is the master's view of one task, forwarded into the snapshot.
// Workers counts the worker indices handed out at this epoch and DoneWorkers
// those that completed; the difference is the workers alive, which is what
// the clone cap bounds (AtWorkerCap).
type TaskTel struct {
	Name        string
	Epoch       int
	Scheduled   bool
	Finished    bool
	Workers     int
	DoneWorkers int
	StartedAt   time.Time
	LastClone   time.Time

	// Declared shape relevant to cloning decisions.
	NoClone   bool
	MaxClones int // caps live workers; 0 means the cluster's slots
	HasMerge  bool
	Inputs    []string
	// ConsumesEdge names the partitioned shuffle edge this task consumes
	// ("" for ordinary tasks); EdgeSpread mirrors the edge's Spread flag.
	ConsumesEdge string
	EdgeSpread   bool
	// Consumers is, for a partitioned consumer, how many live workers pull
	// from each physical partition (one owner per leaf, plus its clones);
	// a clone is bound to one of them. Ordinary tasks leave it nil: every
	// live worker pulls from every declared input.
	Consumers map[string]int
}

// AtWorkerCap is the clone cap, stated once for the policies' gate and the
// master's transactional re-check: a task may have at most
// min(totalSlots, maxClones) workers alive. Workers that completed do not
// count — a finished worker's slot is idle, and the paper clones onto any
// idle slot (§3.2).
func AtWorkerCap(live, maxClones, totalSlots int) bool {
	limit := totalSlots
	if maxClones > 0 && maxClones < limit {
		limit = maxClones
	}
	return live >= limit
}

// EdgeTel is the state of one partitioned shuffle edge: the current
// partition map, whether the edge is still being produced, and — when the
// hub fetched them this round — the merged producer statistics.
type EdgeTel struct {
	Name   string
	PMap   *shuffle.PartitionMap
	Spread bool
	// Active: producers still running and the consumer not yet scheduled.
	// It gates the hub's stats fetches, and the frozen benchmark's policy
	// probe sets it by name.
	Active bool
	// Stats is the merged producer sketch for the edge, or nil if the hub
	// did not (re-)fetch it for this snapshot. Policies must treat nil as
	// "no fresh evidence", not as "empty edge".
	Stats *sketch.EdgeStats
}

// Heat is how hot an edge's record makes it: the one set of numbers the
// skew time series, the heat alert and /debug/skew read, so that none of
// them can disagree about an edge.
type Heat struct {
	// Records is the number of records the edge's producers have reported.
	Records uint64
	// LeafRecords is the load of the current map's hottest leaf.
	LeafRecords uint64
	// Imbalance is LeafRecords over the mean load per leaf of the current
	// map: the quantity the heat alert bounds.
	Imbalance float64
	// Heavy are the sketch's heavy-hitter candidates, heaviest first.
	Heavy []sketch.HeavyKey
}

// Share is n records' fraction of the edge's records.
func (h Heat) Share(n uint64) float64 { return float64(n) / float64(h.Records) }

// EdgeHeat computes the heat of one edge record. An edge without a map,
// without stats or without records has the zero Heat.
func EdgeHeat(e *EdgeTel) Heat {
	if e.Stats == nil || e.PMap == nil || e.Stats.Total() == 0 {
		return Heat{}
	}
	h := Heat{Records: e.Stats.Total()}
	leaves := e.PMap.Leaves()
	for _, l := range leaves {
		h.LeafRecords = max(h.LeafRecords, e.Stats.Counts[l])
	}
	h.Imbalance = float64(h.LeafRecords) * float64(len(leaves)) / float64(h.Records)
	h.Heavy = e.Stats.TopKeys(sketch.MaxHeavyKeys, 0)
	return h
}

// BagTel is a sampled depth probe of one bag, used by the Eq. 2 cloning
// heuristic.
type BagTel struct {
	ReadBytes      int64
	RemainingBytes int64
}

// Snapshot is one versioned, self-consistent view of the cluster: task
// state from the master, node/overload telemetry from the hub, and fresh
// edge statistics where the fetch rate limit allowed. Policies treat it as
// read-only.
type Snapshot struct {
	Version uint64
	Now     time.Time

	// Job identifies the job this snapshot describes. In a multi-job
	// cluster every job runs its own master, hub, and policy chain; the
	// job identity lets policies and logs attribute actions, and marks
	// that FreeSlots/LeaseSlots describe a *shared* cluster rather than
	// one the job owns outright.
	Job string

	// FreeSlots and TotalSlots are the cluster's physical idle and total
	// worker slots — shared by every concurrent job.
	FreeSlots  int
	TotalSlots int

	// LeaseSlots, when LeaseCapped is set, is the job's fair-share
	// mitigation budget this round: the number of additional workers the
	// scheduler will let the job claim before a starved neighbor's share
	// takes precedence. Arbitrate caps the clone budget at it so no
	// policy — built-in or custom — can starve a neighboring job, even
	// when physical FreeSlots are plentiful.
	LeaseSlots  int
	LeaseCapped bool

	Nodes     map[string]NodeTel // never set by the hub; see NodeTel
	Tasks     map[string]*TaskTel
	Edges     map[string]*EdgeTel
	Overloads []Overload

	// SampleBag lazily probes a bag's depth (read/remaining bytes). It
	// returns nil when the probe fails or no prober is configured; the
	// cloning policies then decline to clone. A result is reused, within
	// the snapshot and by later ones, until it is a fetch interval old.
	SampleBag func(bag string) *BagTel
}

// TaskNames returns the snapshot's task names in deterministic order.
func (s *Snapshot) TaskNames() []string {
	out := make([]string, 0, len(s.Tasks))
	for n := range s.Tasks {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// EdgeNames returns the snapshot's edge names in deterministic order.
func (s *Snapshot) EdgeNames() []string {
	out := make([]string, 0, len(s.Edges))
	for n := range s.Edges {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ---- actions ----

// An Action is a declarative mitigation decision. Policies emit Actions;
// Arbitrate prunes conflicting ones; the master validates each survivor
// against its authoritative state and applies it (or drops it if the state
// moved underneath — the next snapshot will re-propose).
//
// The action vocabulary is CLOSED: CloneTask and RejectClone are the
// complete instruction set the master knows how to apply. Policies are the extension point — a custom
// policy composes these instructions; an action type the master does not
// recognize is discarded without effect.
type Action interface {
	// Kind returns a stable action identifier for logs and tests.
	Kind() string
}

// CloneTask schedules one additional worker for a running task ("the
// master performs task cloning by scheduling a copy of the task on an idle
// node, as it would any other task", §3.2).
type CloneTask struct {
	Task  string
	Epoch int
	// Inputs overrides the clone's consumed bags (partitioned consumers:
	// the physical partition the placement rule chose). Nil means the
	// task's declared inputs.
	Inputs []string
}

// Kind implements Action.
func (CloneTask) Kind() string { return "clone" }

// RejectClone records that a clone proposal was evaluated and declined
// (no idle slot, or Eq. 2 said cloning would not pay off). It exists so
// the master's observability counters survive the refactor.
type RejectClone struct {
	Task string
}

// Kind implements Action.
func (RejectClone) Kind() string { return "reject-clone" }

// ---- policies ----

// A Policy is one interchangeable mitigation strategy: it inspects a
// Snapshot and proposes Actions. Policies must be side-effect free — all
// state they need is in the Snapshot, and all state they change is carried
// by the Actions they emit. That makes them replayable against synthetic
// telemetry traces and composable in any order (Arbitrate, not emission
// order, resolves conflicts).
type Policy interface {
	// Name identifies the policy in logs and stats.
	Name() string
	// Evaluate proposes mitigation actions for one snapshot.
	Evaluate(snap *Snapshot) []Action
}

// Arbitrate resolves conflicts among the actions proposed by all policies
// for one snapshot, in one place:
//
//   - at most one clone per task per round (duplicate overload signals, or
//     proposals from several policies, collapse to the first proposal);
//   - total clones are capped by the snapshot's free slots — and, in a
//     multi-job cluster, by the job's fair-share lease budget
//     (LeaseSlots), so one job's mitigations cannot starve its
//     neighbors (excess proposals become RejectClone, preserving the
//     reject counters).
//
// Besides the master's control pass, the frozen benchmark's policy probe
// calls it by name.
func Arbitrate(snap *Snapshot, proposed []Action) []Action {
	out := make([]Action, 0, len(proposed))
	clonedTask := make(map[string]bool)
	budget := snap.FreeSlots
	if snap.LeaseCapped && snap.LeaseSlots < budget {
		budget = snap.LeaseSlots
	}
	for _, a := range proposed {
		act, ok := a.(CloneTask)
		if !ok {
			out = append(out, a)
			continue
		}
		if clonedTask[act.Task] {
			continue
		}
		clonedTask[act.Task] = true
		if budget <= 0 {
			out = append(out, RejectClone{Task: act.Task})
			continue
		}
		budget--
		out = append(out, act)
	}
	return out
}
