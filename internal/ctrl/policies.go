package ctrl

import (
	"maps"
	"slices"

	"repro/internal/shuffle"
	"repro/internal/sketch"
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
	// merge procedure. Otherwise splitting is the skew defense.
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

// ---- shuffle-edge refinement ----

// hotLeaf is EdgeHeat plus the policy thresholds: it reports the edge's
// heat and whether its hottest refinable leaf crosses the imbalance
// threshold on an edge that is still active and past SplitMinRecords. Both
// refinement policies share this detection so their proposals name the
// same partition and Arbitrate can resolve the preference.
func hotLeaf(cfg *Config, e *EdgeTel) (Heat, bool) {
	if !e.Active {
		return Heat{}, false
	}
	h := EdgeHeat(e)
	return h, h.Leaf != "" && h.Records >= uint64(cfg.SplitMinRecords) && h.Imbalance > cfg.SplitImbalance
}

// dominantKey returns the heaviest non-isolated heavy-hitter candidate
// routed to the edge's hot leaf, if one accounts for at least
// IsolateFraction of the leaf's records. Candidates come ranked, so the
// first survivor of the leaf/isolation filters is the dominant one.
func dominantKey(cfg *Config, e *EdgeTel, h Heat) *sketch.HeavyKey {
	for i, hk := range h.Heavy {
		if e.PMap.IsIsolated(shuffle.KeyHash(hk.Key)) {
			continue
		}
		if e.PMap.LeafForKey(hk.Key) != h.Leaf {
			continue
		}
		if float64(hk.Count) < cfg.IsolateFraction*float64(h.LeafRecords) {
			return nil
		}
		return &h.Heavy[i]
	}
	return nil
}

// SplitPartitionPolicy re-hashes a hot base partition into SplitFan
// sub-partitions when many medium keys pile onto it (Reshape-style).
// Splitting only redirects records not yet written, so it is always safe;
// the edge must still be active (producers running, consumer unscheduled).
type SplitPartitionPolicy struct {
	Cfg Config
}

// Name implements Policy.
func (*SplitPartitionPolicy) Name() string { return "split-partition" }

// Evaluate implements Policy.
func (p *SplitPartitionPolicy) Evaluate(snap *Snapshot) []Action {
	var out []Action
	for _, name := range snap.EdgeNames() {
		e := snap.Edges[name]
		h, hot := hotLeaf(&p.Cfg, e)
		if !hot {
			continue
		}
		part, isBase := e.PMap.BasePartitionIndex(h.Leaf)
		if !isBase {
			// A sub-partition or isolated bag still hot: re-hashing cannot
			// refine it further. If IsolateKeyPolicy has a dominant key to
			// extract, its proposal wins in arbitration; otherwise the
			// master records the leaf as unrefinable.
			out = append(out, MarkUnsplittable{Edge: name, Leaf: h.Leaf})
			continue
		}
		out = append(out, SplitPartition{Edge: name, Partition: part, Fan: p.Cfg.SplitFan, Leaf: h.Leaf})
	}
	return out
}

// IsolateKeyPolicy diverts a dominant heavy-hitter key into a dedicated
// bag when a single key carries a hot partition (SharesSkew-style),
// spreading it record-wise over SplitFan bags when the edge permits.
type IsolateKeyPolicy struct {
	Cfg Config
}

// Name implements Policy.
func (*IsolateKeyPolicy) Name() string { return "isolate-key" }

// Evaluate implements Policy.
func (p *IsolateKeyPolicy) Evaluate(snap *Snapshot) []Action {
	var out []Action
	for _, name := range snap.EdgeNames() {
		e := snap.Edges[name]
		h, hot := hotLeaf(&p.Cfg, e)
		if !hot {
			continue
		}
		top := dominantKey(&p.Cfg, e, h)
		if top == nil {
			continue
		}
		fan := 1
		if e.Spread {
			fan = p.Cfg.SplitFan
		}
		out = append(out, IsolateKey{Edge: name, Key: top.Key, Fan: fan})
	}
	return out
}
