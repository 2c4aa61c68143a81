package core

import "time"

// nodeState is what the master knows of a compute node's liveness.
type nodeState struct {
	lastBeat time.Time
	dead     bool
}

// A compute node is declared dead once it has been silent for failBeats
// of its heartbeat periods, and never sooner than failFloor. The floor is
// set by how late a live node's tick can land, which does not shrink with
// the period: on a loaded host ticks land up to ~230 ms late (go test
// -race ./... on a 2-core x86-64 host), a hundred times a millisecond
// period, so a bare multiple would bury live nodes.
const (
	failBeats = 4
	failFloor = time.Second
)

// failTimeout is the heartbeat silence after which a node whose heartbeat
// period is beat counts as dead.
func failTimeout(beat time.Duration) time.Duration {
	return max(failBeats*beat, failFloor)
}

// detectFailures declares dead every compute node silent for longer than
// the failure timeout that still holds a worker of an unfinished task, and
// recovers those tasks (§4.4), returning how many nodes it declared dead.
// A silent node that holds nothing — one removed gracefully, or one whose
// workers all finished — is not a failure: there is nothing to recover.
// It runs on the loop goroutine after the record bags are absorbed, so the
// running evidence is current, and before the next schedulePass, so a
// restarted task can never start reading an input bag before its rewind
// lands.
func (m *Master) detectFailures(now time.Time) int {
	m.mu.Lock()
	var dead []string
	for name, ns := range m.nodes {
		if !ns.dead && now.Sub(ns.lastBeat) > m.failTimeout && len(m.tasksOnLocked(name)) > 0 {
			ns.dead = true
			dead = append(dead, name)
		}
	}
	m.mu.Unlock()
	for _, node := range dead {
		m.recoverNode(node)
	}
	return len(dead)
}

// tasksOnLocked names the unfinished tasks with a worker started on node.
// Caller holds m.mu.
func (m *Master) tasksOnLocked(node string) []string {
	var out []string
	for name, st := range m.tasks {
		if !st.active() {
			continue
		}
		for _, n := range st.running {
			if n == node {
				out = append(out, name)
				break
			}
		}
	}
	return out
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
	// Directly affected: the unfinished tasks with a worker started on
	// the dead node.
	worklist := m.tasksOnLocked(node)
	inList := make(map[string]bool)
	for _, name := range worklist {
		inList[name] = true
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
				if p != name && !inList[p] && m.tasks[p].phase != pending {
					worklist = append(worklist, p)
					inList[p] = true
				}
			}
		}
		// Reset master state for the task at a fresh epoch.
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
			// double-count the records they will re-write.
			if m.edges[b] != nil {
				if err := m.store.DeleteSketch(m.ctx, b); err != nil {
					m.failRecovery(err)
					return
				}
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
