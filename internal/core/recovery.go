package core

import (
	"time"

	"repro/internal/ctrl"
)

// failureDetectPass declares compute nodes dead after FailTimeout of
// heartbeat silence and recovers their tasks.
func (m *Master) failureDetectPass() {
	if m.cfg.FailTimeout <= 0 {
		return
	}
	now := time.Now()
	m.mu.Lock()
	var deadNodes []string
	for name, ns := range m.nodes {
		if !ns.dead && now.Sub(ns.lastBeat) > m.cfg.FailTimeout {
			ns.dead = true
			deadNodes = append(deadNodes, name)
		}
	}
	m.mu.Unlock()
	for _, node := range deadNodes {
		m.enqueueRecovery(node)
	}
}

// drainRecoveries performs pending node recoveries, returning how many
// ran. It runs on the master loop goroutine, so recovery's task-state
// resets, kills, and storage scrubbing are strictly ordered before the
// next schedulePass — a restarted task can never start reading an input
// bag before its rewind lands.
func (m *Master) drainRecoveries() int {
	n := 0
	for {
		select {
		case node := <-m.recoverCh:
			m.recoverNode(node)
			n++
		default:
			return n
		}
	}
}

func (m *Master) enqueueRecovery(node string) {
	select {
	case m.recoverCh <- node:
		// Wake the loop: a recovery is waiting, and it restarts what the
		// running bag says ran on the node.
		m.hub.Raise(ctrl.CauseRunning)
	default:
		// Queue full: re-mark the node not-dead so failure detection
		// retries next tick. In practice 64 pending recoveries means the
		// cluster is gone anyway.
		m.mu.Lock()
		if ns := m.nodes[node]; ns != nil {
			ns.dead = false
		}
		m.mu.Unlock()
	}
}

// NotifyNodeFailure lets the embedding cluster report a known-dead compute
// node immediately instead of waiting out the heartbeat timeout.
func (m *Master) NotifyNodeFailure(node string) {
	m.mu.Lock()
	ns := m.nodes[node]
	if ns == nil {
		ns = &nodeState{}
		m.nodes[node] = ns
	}
	alreadyDead := ns.dead
	ns.dead = true
	m.mu.Unlock()
	if !alreadyDead {
		m.enqueueRecovery(node)
	}
}

// recoverNode restarts every task that had a worker on the failed node
// (§4.4): terminate all running clones of those tasks, discard their
// output bags, rewind their input bags, and reschedule them at a new
// epoch. Tasks that shared an output bag with a restarted task are also
// restarted (their contribution to the discarded bag is lost), which the
// worklist below handles transitively.
func (m *Master) recoverNode(node string) {
	m.obs.recoveries.Inc()
	m.mu.Lock()
	m.recoveries++
	// Find directly affected tasks: unfinished tasks with a worker
	// started on the dead node.
	worklist := make([]string, 0, 4)
	inList := make(map[string]bool)
	for name, st := range m.tasks {
		if st.finished || !st.scheduled {
			continue
		}
		for _, n := range st.running {
			if n == node {
				if !inList[name] {
					worklist = append(worklist, name)
					inList[name] = true
				}
				break
			}
		}
	}

	type restartPlan struct {
		spec    string
		epoch   int // epoch being aborted
		discard []string
		rewind  []string
	}
	var plans []restartPlan
	for len(worklist) > 0 {
		name := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		st := m.tasks[name]
		plan := restartPlan{spec: name, epoch: st.epoch}
		// Outputs to discard: partial bags (if merging) plus declared
		// outputs (a sole-worker rename may already have moved data
		// there, and concat-task clones write it directly).
		if st.spec.requiresMerge() {
			plan.discard = append(plan.discard, st.partials()...)
		}
		plan.discard = append(plan.discard, st.spec.Outputs...)
		plan.rewind = append(plan.rewind, st.spec.Inputs...)
		plans = append(plans, plan)

		// Restarting this task discards its declared outputs; other
		// producers of those bags lose their contribution and must be
		// restarted too, even if they already finished.
		for _, out := range st.spec.Outputs {
			for _, p := range m.app.Producers(out) {
				if p != name && !inList[p] && m.tasks[p].scheduled {
					worklist = append(worklist, p)
					inList[p] = true
				}
			}
		}
		// Reset master state for the task at a fresh epoch.
		if st.finished {
			m.finished--
		}
		for _, out := range st.spec.Outputs {
			delete(m.sealed, out)
		}
		st.reset(st.epoch + 1)
	}
	m.mu.Unlock()

	// Execute the plans outside the lock: kill clones cluster-wide, then
	// scrub storage. The tasks will be rescheduled by the next
	// schedulePass once their (still sealed) inputs qualify.
	for _, plan := range plans {
		m.control.KillTask(plan.spec, plan.epoch)
	}
	for _, plan := range plans {
		for _, b := range plan.discard {
			for _, phys := range m.physicalBags(b) {
				if err := m.store.Discard(m.ctx, phys); err != nil {
					m.failRecovery(err)
					return
				}
			}
			// Discarding a shuffle edge's data also discards its sketch
			// state: the restarted producers re-push from zero, and stale
			// cumulative stats from the aborted epoch must not
			// double-count the records they will re-write. The map goes
			// with it, so it is announced again: the seed stands.
			if edge := m.edges[b]; edge != nil {
				if err := m.store.DeleteSketch(m.ctx, b); err != nil {
					m.failRecovery(err)
					return
				}
				m.announceMap(edge)
			}
		}
		for _, b := range plan.rewind {
			for _, phys := range m.physicalBags(b) {
				if err := m.store.Rewind(m.ctx, phys); err != nil {
					m.failRecovery(err)
					return
				}
			}
		}
	}
}

// failRecovery records a recovery error as a job failure — unless the
// master itself was stopped mid-recovery (crash simulation, shutdown),
// in which case the interrupted scrub is not a job failure: the
// successor master re-derives the dead nodes from carried-over liveness
// state and re-runs the recovery from the work bags.
func (m *Master) failRecovery(err error) {
	if m.ctx.Err() != nil && m.stopped.Load() {
		return
	}
	m.fail(err)
}
