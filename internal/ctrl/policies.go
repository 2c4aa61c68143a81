package ctrl

import (
	"maps"
	"slices"
	"time"
)

// ---- cloning ----

// ClonePolicy is the paper's mitigation (§4.2): each overload signal from
// a compute node is a clone request for its task, gated by per-task rate
// limiting, the live-worker cap and live bag depth telemetry. The signal
// says a task wants a clone; proposeClone says where it goes.
//
// The paper also gates each clone with its Eq. 2, remaining time against
// the clone's extra I/O. Priced from a bag's drain rate, the remaining
// bytes and the worker count cancel out of it, leaving a cap on the drain
// rate that no workload comes near, so the policy does not evaluate it.
type ClonePolicy struct {
	// CloneInterval is the minimum gap between successive clones of one
	// task (the paper sends clone messages at least 2 seconds apart).
	CloneInterval time.Duration
}

// Name implements Policy.
func (*ClonePolicy) Name() string { return "clone" }

// Evaluate implements Policy.
func (p *ClonePolicy) Evaluate(snap *Snapshot) []Action {
	var out []Action
	for _, o := range snap.Overloads {
		t := snap.Tasks[o.Task]
		if t == nil || o.Epoch != t.Epoch || o.Merge ||
			!t.Scheduled || t.Finished || t.NoClone {
			continue
		}
		if a, ok := proposeClone(p.CloneInterval, snap, t); ok {
			out = append(out, a)
		}
	}
	return out
}

// proposeClone applies the cloning gates to one requested task and returns
// the resulting proposal: a CloneTask when every gate passes, a RejectClone
// when an idle slot is missing or no input has work left (preserving the
// master's reject counters), or nothing when a cheap gate (live-worker cap,
// rate limit, soundness of sharing a partition) filters the request.
//
// A clone goes where the most work is left: of the bags the task's live
// workers consume, the one with the most remaining bytes per live worker.
// A bag with nothing remaining (or no depth probe) is never a candidate, so
// no clone is started only to find its input dry. For a consumer of a
// partitioned shuffle bag the candidates are the physical partitions, and
// the clone is bound to the one chosen.
func proposeClone(interval time.Duration, snap *Snapshot, t *TaskTel) (Action, bool) {
	live := t.Workers - t.DoneWorkers
	if live <= 0 {
		return nil, false // no worker yet, or the task is effectively over
	}
	if AtWorkerCap(live, t.MaxClones, snap.TotalSlots) {
		return nil, false
	}
	if snap.Now.Sub(t.LastClone) < interval {
		return nil, false
	}
	// Chunk-level sharing of one partition splits a key's records across
	// workers, so it is only sound when the edge declared record-level
	// parallelism safe (Spread) or the task reconciles partials through a
	// merge procedure. Otherwise each leaf keeps its one owner: the paper
	// clones no task whose partial outputs cannot be merged (§2.3).
	if t.ConsumesEdge != "" && !t.EdgeSpread && !t.HasMerge {
		return nil, false
	}
	reject := RejectClone{Task: t.Name}
	if snap.FreeSlots <= 0 || snap.SampleBag == nil {
		return reject, true
	}
	consumers := t.Consumers
	if t.ConsumesEdge == "" {
		consumers = make(map[string]int, len(t.Inputs))
		for _, in := range t.Inputs {
			consumers[in] = live
		}
	}
	var input string
	var most float64
	for _, bag := range slices.Sorted(maps.Keys(consumers)) {
		tel := snap.SampleBag(bag)
		if tel == nil || tel.RemainingBytes <= 0 || consumers[bag] <= 0 {
			continue
		}
		if per := float64(tel.RemainingBytes) / float64(consumers[bag]); input == "" || per > most {
			input, most = bag, per
		}
	}
	if input == "" {
		return reject, true
	}
	clone := CloneTask{Task: t.Name, Epoch: t.Epoch}
	if t.ConsumesEdge != "" {
		clone.Inputs = []string{input}
	}
	return clone, true
}
