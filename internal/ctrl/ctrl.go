// Package ctrl is Hurricane's adaptive control plane: the telemetry hub
// that turns overload signals and bag depths into one versioned cluster
// Snapshot (and wakes the control loop by Cause), and
// the pluggable mitigation Policies that turn a Snapshot into declarative
// Actions.
//
// The paper's core claim (§2.2) is that one adaptive mechanism family —
// fine-grained cloning plus late binding — tames skew at runtime. The
// built-in mitigation is exactly that: a clone requested by an overloaded
// worker (§4.2), gated by a rate limit, the live-worker cap and the work
// left in its input, and placed by one rule. Following the Reshape/Texera
// line of work, policies run as interchangeable strategies driven by a
// shared metrics pipeline:
//
//   - the Hub ingests telemetry signals as they arrive (event-driven, not
//     polled), batches them, and builds versioned Snapshots on demand;
//   - the Hub also owns what is known about a partitioned shuffle edge: its
//     record of every sealed edge (Edges) carries the edge's map and the
//     merge of its producers' final stats, and EdgeHeat says how hot that
//     makes it. The operator surfaces and every warm start read that one
//     record through that one function;
//   - a Policy inspects a Snapshot and proposes Actions;
//   - Arbitrate holds concurrently proposed Actions to the clone budget
//     (free slots, the job's lease) in one place; each overload signal is
//     one clone request, so an overloaded task at most doubles per round;
//   - the paper-figure simulator (internal/sim) runs the same ClonePolicy
//     and Arbitrate on Snapshots of its own overload detection;
//   - the master validates and applies the surviving Actions
//     transactionally against its authoritative task state.
//
// The package deliberately does not import internal/core: policies are
// pure functions over telemetry, unit-testable against synthetic traces
// with no cluster behind them.
package ctrl

import (
	"time"

	"repro/internal/shuffle"
	"repro/internal/sketch"
)

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
	// StartedAt is never set by the master and no policy reads it; it stays
	// only because the frozen benchmark's policy probe fills it in.
	StartedAt time.Time
	LastClone time.Time

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

// EdgeTel is the record of one sealed partitioned shuffle edge: its
// partition map and the merge of its producers' final statistics.
type EdgeTel struct {
	Name   string
	PMap   *shuffle.PartitionMap
	Spread bool
	// Active does nothing; the frozen benchmark's policy probe sets it.
	Active bool
	// Stats is the merge of the producers' final statistics (their done
	// records), nil when none wrote a record.
	Stats *sketch.EdgeStats
}

// Heat is how hot an edge's record makes it: the numbers /debug/skew
// reports for an edge.
type Heat struct {
	// Records is the number of records the edge's producers have reported.
	Records uint64
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
	return Heat{Records: e.Stats.Total(), Heavy: e.Stats.TopKeys(sketch.MaxHeavyKeys, 0)}
}

// BagTel is a sampled depth probe of one bag: where a clone goes, and
// whether there is work left for one.
type BagTel struct {
	// ReadBytes is never set by the master and no policy reads it; it stays
	// only because the frozen benchmark's policy probe fills it in.
	ReadBytes      int64
	RemainingBytes int64
}

// Snapshot is one versioned, self-consistent view of the cluster: task
// state from the master and overload telemetry from the hub. Policies
// treat it as read-only.
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

	Nodes map[string]NodeTel // never set by the hub; see NodeTel
	Tasks map[string]*TaskTel
	// Edges is never set by the hub; the frozen benchmark's policy probe
	// sets it.
	Edges     map[string]*EdgeTel
	Overloads []Overload

	// SampleBag lazily probes a bag's depth (its remaining bytes). It
	// returns nil when the probe fails or no prober is configured; the
	// cloning policies then decline to clone. A result is reused, within
	// the snapshot and by later ones, until it is a probe interval old.
	SampleBag func(bag string) *BagTel
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

// RejectClone records that a clone proposal was evaluated and declined: no
// idle slot, or no input left to share. It exists so the master's
// observability counters survive the refactor.
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

// Arbitrate holds the actions all policies proposed for one snapshot to the
// clone budget, in one place: the snapshot's free slots and, in a multi-job
// cluster, the job's fair-share lease (LeaseSlots), so one job's
// mitigations cannot starve its neighbors. A clone over budget becomes a
// RejectClone, preserving the reject counters: every proposal yields one
// action. Several clones of one task are no conflict; each overload signal
// is one clone request (§4.2). Besides the master's control pass and the
// paper-figure simulator, the frozen benchmark's policy probe calls it.
func Arbitrate(snap *Snapshot, proposed []Action) []Action {
	out := make([]Action, 0, len(proposed))
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
		if budget <= 0 {
			out = append(out, RejectClone{Task: act.Task})
			continue
		}
		budget--
		out = append(out, act)
	}
	return out
}
