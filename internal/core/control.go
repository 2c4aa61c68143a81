package core

import (
	"fmt"
	"time"

	"repro/internal/ctrl"
	"repro/internal/obs"
)

// This file is the master's side of the control plane (internal/ctrl): it
// hands the policies a snapshot of the state the records built and applies
// the actions they propose. No mitigation decision is made here.

// DefaultPolicies is the mitigation set a nil MasterConfig.Policies
// installs: the paper's cloning on overload signals, rate-limited by cfg's
// CloneInterval. Callers composing custom policy chains can start from it.
func DefaultPolicies(cfg MasterConfig) []ctrl.Policy {
	cfg.fill()
	return []ctrl.Policy{&ctrl.ClonePolicy{CloneInterval: cfg.CloneInterval}}
}

// policyInterval is how often the policies are evaluated when no record
// changes: half the gap a task's clones are held to (one per overload
// signal, once per CloneInterval), so a clone waits at most that long past
// its gate. Without policies, the fallback.
func (m *Master) policyInterval() time.Duration {
	if len(m.policies) == 0 {
		return fallbackInterval
	}
	return max(m.cfg.CloneInterval/2, time.Millisecond)
}

// controlPass runs the adaptive control plane: build a telemetry snapshot,
// evaluate the configured policies, and apply the arbitrated actions. It
// returns the number of state-changing actions applied.
func (m *Master) controlPass() (int, error) {
	if len(m.policies) == 0 {
		return 0, nil
	}
	snap := m.hub.Snapshot(m.ctx, m.fillSnapshot)
	// Arbitrate returns one action per proposal: a clone over budget becomes
	// a RejectClone, counted with the rejects, so none goes uncounted.
	var proposed []ctrl.Action
	for _, p := range m.policies {
		proposed = append(proposed, p.Evaluate(snap)...)
	}
	actions := ctrl.Arbitrate(snap, proposed)
	m.obs.proposed.Add(uint64(len(proposed)))
	applied, err := m.applyActions(actions)
	m.obs.applied.Add(uint64(applied))
	return applied, err
}

// fillSnapshot contributes the master's authoritative task state to a
// telemetry snapshot. Pure forwarding: no decisions are made here.
func (m *Master) fillSnapshot(snap *ctrl.Snapshot) {
	snap.Job = m.obs.job
	snap.FreeSlots = m.control.FreeSlots()
	snap.TotalSlots = m.control.TotalSlots()
	snap.LeaseCapped = true
	snap.LeaseSlots = m.control.LeaseSlots()
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, st := range m.tasks {
		t := &ctrl.TaskTel{
			Name:        name,
			Epoch:       st.epoch,
			Scheduled:   st.phase != pending,
			Finished:    st.phase == finished,
			Workers:     st.workers,
			DoneWorkers: len(st.doneWorkers),
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
	if st == nil || st.epoch != act.Epoch || !st.active() || st.spec.NoClone {
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
	bp := m.blueprintFor(st, KindTask, w, act.Inputs)
	m.mu.Unlock()
	if err := m.pushReady(bp); err != nil {
		return false, err
	}
	m.obs.clones.Inc()
	m.obs.emit(obs.EvTaskCloned, act.Task, fmt.Sprintf("worker=%d", w))
	return true, nil
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
		if !st.active() {
			continue
		}
		// Prefer the most recent clones: they have consumed the least.
		for w := st.workers - 1; w >= 1 && budget > 0; w-- {
			if st.doneWorkers[w] || st.yielding[w] || !m.isClone(st, w) {
				continue
			}
			bpID := blueprintID(st.spec.Name, w, st.epoch)
			node, claimed := st.running[bpID]
			if !claimed {
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
