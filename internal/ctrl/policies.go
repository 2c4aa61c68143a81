package ctrl

import (
	"maps"
	"slices"
)

// ---- cloning ----

// ClonePolicy is the paper's reactive mitigation (§4.2): each overload
// signal from a compute node is a clone request for its task, gated by
// per-task rate limiting, the live-worker cap, and the Eq. 2 heuristic
// T > (k+1)·T_IO evaluated against live bag depth telemetry. The signal
// says a task wants a clone; proposeClone says where it goes.
type ClonePolicy struct {
	Cfg Config
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
		if a, ok := proposeClone(&p.Cfg, snap, t, false); ok {
			out = append(out, a)
		}
	}
	return out
}

// SpeculativePolicy is the paper's stated future work (§3.5): any task
// still running SpeculativeAfter past its start is treated as if it had
// signalled overload, mitigating stragglers whose slowness is not
// CPU-bound (e.g. a degraded machine). The clone steals the remaining
// chunks through ordinary late binding, so no work is redone. Partitioned
// consumers are covered like any task: proposeClone places the clone.
type SpeculativePolicy struct {
	Cfg Config
}

// Name implements Policy.
func (*SpeculativePolicy) Name() string { return "speculative" }

// Evaluate implements Policy.
func (p *SpeculativePolicy) Evaluate(snap *Snapshot) []Action {
	var out []Action
	for _, name := range snap.TaskNames() {
		t := snap.Tasks[name]
		if !t.Scheduled || t.Finished || t.NoClone {
			continue
		}
		if snap.Now.Sub(t.StartedAt) < p.Cfg.SpeculativeAfter {
			continue
		}
		if a, ok := proposeClone(&p.Cfg, snap, t, true); ok {
			out = append(out, a)
		}
	}
	return out
}

// proposeClone applies the gates shared by reactive and speculative
// cloning and returns the resulting proposal: a CloneTask when every gate
// passes, a RejectClone when an idle slot is missing, no input has work
// left or Eq. 2 declines (preserving the master's reject counters), or
// nothing when a cheap gate (live-worker cap, rate limit, soundness of
// sharing a partition) filters the request.
//
// A clone goes where the most work is left: of the bags the task's live
// workers consume, the one with the most remaining bytes per live worker.
// A bag with nothing remaining (or no depth probe) is never a candidate, so
// no clone is started only to find its input dry. For a consumer of a
// partitioned shuffle bag the candidates are the physical partitions, and
// the clone is bound to the one chosen.
func proposeClone(cfg *Config, snap *Snapshot, t *TaskTel, speculative bool) (Action, bool) {
	live := t.Workers - t.DoneWorkers
	if live <= 0 {
		return nil, false // no worker yet, or the task is effectively over
	}
	if AtWorkerCap(live, t.MaxClones, snap.TotalSlots) {
		return nil, false
	}
	if snap.Now.Sub(t.LastClone) < cfg.CloneInterval {
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
	reject := RejectClone{Task: t.Name, Speculative: speculative}
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
	var depth *BagTel
	var most float64
	for _, bag := range slices.Sorted(maps.Keys(consumers)) {
		tel := snap.SampleBag(bag)
		if tel == nil || tel.RemainingBytes <= 0 || consumers[bag] <= 0 {
			continue
		}
		if per := float64(tel.RemainingBytes) / float64(consumers[bag]); per > most {
			input, depth, most = bag, tel, per
		}
	}
	if depth == nil || (!cfg.DisableHeuristic && !cloneWorthwhile(cfg, snap, depth, t)) {
		return reject, true
	}
	clone := CloneTask{Task: t.Name, Epoch: t.Epoch, Speculative: speculative}
	if t.ConsumesEdge != "" {
		clone.Inputs = []string{input}
	}
	return clone, true
}

// cloneWorthwhile evaluates Eq. 2 against the sampled depth of the bag the
// clone would consume (which has bytes remaining).
//
//	T    — remaining task time, estimated from the input bag's remaining
//	       bytes and the task's observed aggregate drain rate;
//	T_IO — extra I/O the clone causes: it will read ≈ R/(k+1) of the
//	       remaining input and write a comparable partial output that must
//	       then be merged, so T_IO ≈ 2·(R/(k+1))/BW.
//
// Clone iff T > (k+1)·T_IO.
func cloneWorthwhile(cfg *Config, snap *Snapshot, stats *BagTel, t *TaskTel) bool {
	remaining := float64(stats.RemainingBytes)
	elapsed := snap.Now.Sub(t.StartedAt).Seconds()
	if elapsed <= 0 {
		return true
	}
	rate := float64(stats.ReadBytes) / elapsed
	if rate <= 0 {
		// No observed progress yet: assume cloning helps.
		return true
	}
	k := float64(t.Workers)
	tt := remaining / rate
	tio := 2 * (remaining / (k + 1)) / cfg.StorageBandwidth
	return tt > (k+1)*tio
}
