package core

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// phase is how far a task has got at its current epoch. It only moves
// forward (advance); only an epoch bump (reset) moves it back to pending.
// So evidence folded in any order, a record of a later phase before one of
// an earlier, leaves a task in the same phase.
type phase uint8

const (
	pending  phase = iota // not scheduled at this epoch
	running               // workers handed out
	merging               // every worker done; the merge task scheduled
	merged                // the final output in place: merge done, or the sole partial adopted
	finished              // done; its outputs sealed once all their producers are
)

// taskState is the master's view of one task of the execution graph.
type taskState struct {
	spec *TaskSpec

	epoch       int
	phase       phase
	workers     int          // worker indices handed out at this epoch
	doneWorkers map[int]bool // worker indices completed at this epoch

	lastClone time.Time

	// running maps blueprint ID -> node, for failure recovery.
	running map[string]string

	// leaf maps each worker index of a partitioned consumer to the physical
	// partition bag it pulls from (its own for a leaf's owner, the one its
	// clone action named for a clone). Learned from the ready bag's
	// blueprints, this master's and a predecessor's alike.
	leaf map[int]string
	// yielding marks workers asked to yield whose completion has not
	// been observed yet, so repeated preemption rounds do not over-yield.
	yielding map[int]bool
}

func (st *taskState) reset(epoch int) {
	st.epoch = epoch
	st.phase = pending
	st.workers = 0
	st.doneWorkers = make(map[int]bool)
	st.running = make(map[string]string)
	st.leaf = make(map[int]string)
	st.yielding = make(map[int]bool)
}

// advance moves the task on to phase p, unless it is there already or
// further: the one write of a task's phase besides reset.
func (st *taskState) advance(p phase) { st.phase = max(st.phase, p) }

// active reports whether the task is scheduled and not finished: its
// workers may run, be cloned, yield or be lost with their node.
func (st *taskState) active() bool { return st.phase != pending && st.phase != finished }

// partials returns the partial-output bag names for the task's current
// epoch (only meaningful for tasks with a merge procedure).
func (st *taskState) partials() []string {
	out := make([]string, 0, st.workers)
	for w := 0; w < st.workers; w++ {
		out = append(out, partialBag(st.spec.Outputs[0], w, st.epoch))
	}
	return out
}

// finishedLocked counts the tasks in phase finished. Callers hold m.mu.
func (m *Master) finishedLocked() int {
	n := 0
	for _, st := range m.tasks {
		if st.phase == finished {
			n++
		}
	}
	return n
}

// schedulePass schedules every pending task whose consumed and scanned
// bags are all sealed ("the master ... schedules new tasks once their
// dependencies have been completed", §4.1). It returns the number of
// blueprints pushed.
func (m *Master) schedulePass() (int, error) {
	m.mu.Lock()
	var toSchedule []*taskState
	var workerInputs [][][]string // per task, each worker's inputs
	for _, name := range m.app.Tasks() {
		st := m.tasks[name]
		if st.phase != pending || !m.allSealed(st.spec.Inputs) || !m.allSealed(st.spec.ScanInputs) {
			continue
		}
		inputs := [][]string{nil} // one worker reading the spec's inputs
		if edge := m.edgeOf(st.spec); edge != nil {
			// A consumer of a partitioned bag gets one worker per
			// physical partition of the edge's map, fixed at submission.
			inputs = inputs[:0]
			for _, leaf := range edge.pmap.Leaves() {
				inputs = append(inputs, []string{leaf})
			}
		}
		st.advance(running)
		st.workers = len(inputs)
		toSchedule = append(toSchedule, st)
		workerInputs = append(workerInputs, inputs)
	}
	m.mu.Unlock()
	scheduled := 0
	for i, st := range toSchedule {
		for w, in := range workerInputs[i] {
			if err := m.pushReady(m.blueprintFor(st, KindTask, w, in)); err != nil {
				return scheduled, err
			}
			scheduled++
		}
		detail := "workers=1"
		if m.edgeOf(st.spec) != nil {
			detail = fmt.Sprintf("workers=%d (one per partition)", st.workers)
		}
		m.obs.scheduled.Inc()
		m.obs.emit(obs.EvTaskScheduled, st.spec.Name, detail)
	}
	return scheduled, nil
}

// allSealed reports whether every named bag is sealed. Callers hold m.mu.
func (m *Master) allSealed(bags []string) bool {
	for _, b := range bags {
		if !m.sealed[b] {
			return false
		}
	}
	return true
}

// edgeOf returns the partitioned shuffle edge a task consumes, or nil for
// ordinary tasks. Validate guarantees a partitioned consumer has exactly
// one input.
func (m *Master) edgeOf(spec *TaskSpec) *shuffleEdge {
	if len(spec.Inputs) != 1 {
		return nil
	}
	return m.edges[spec.Inputs[0]]
}

// isClone reports whether worker w shares its input with a worker handed
// out before it: any worker but the first of an ordinary task, and for a
// partitioned consumer any worker but the first known on its leaf — the
// leaf's owner, which schedulePass hands out ahead of every clone. A worker
// whose leaf is not known yet is taken for an owner. Callers hold m.mu.
func (m *Master) isClone(st *taskState, w int) bool {
	if m.edgeOf(st.spec) == nil {
		return w > 0
	}
	leaf, known := st.leaf[w]
	for o := 0; known && o < w; o++ {
		if st.leaf[o] == leaf {
			return true
		}
	}
	return false
}

// blueprintFor builds a blueprint of a task at its current epoch: for its
// worker w (KindTask), or for its merge task (KindMerge), which reads
// inputs, the workers' partials, and writes the declared outputs. A worker
// of a task with a merge procedure writes a private partial bag; inputs
// overrides the bags it consumes (partitioned consumers: each worker owns
// one physical partition), nil meaning the spec's declared inputs.
func (m *Master) blueprintFor(st *taskState, kind TaskKind, w int, inputs []string) *Blueprint {
	name := st.spec.Name
	bp := &Blueprint{
		Spec:        name,
		Kind:        kind,
		Worker:      w,
		Epoch:       st.epoch,
		Inputs:      inputs,
		Outputs:     st.spec.Outputs,
		ScheduledAt: time.Now().UnixNano(),

		StatsInterval: m.cfg.SplitInterval,
	}
	if kind == KindMerge {
		name += "+merge"
	} else {
		if inputs == nil {
			bp.Inputs = st.spec.Inputs
		}
		if st.spec.requiresMerge() {
			bp.Outputs = []string{partialBag(st.spec.Outputs[0], w, st.epoch)}
		}
		bp.ScanInputs = st.spec.ScanInputs
	}
	bp.ID = blueprintID(name, w, st.epoch)
	return bp
}

// completionPass moves on the tasks whose workers of the current epoch are
// all done: a task without a merge procedure finishes; one with a merge
// procedure first gets its final output, by renaming its sole worker's
// partial or from a merge task over its workers' partials, and then
// finishes. It returns the number of steps taken.
func (m *Master) completionPass() (int, error) {
	changed := 0
	for _, name := range m.app.Tasks() {
		m.mu.Lock()
		st := m.tasks[name]
		p, workers := st.phase, st.workers
		done := st.active() && workers > 0 && len(st.doneWorkers) >= workers
		m.mu.Unlock()
		if !done {
			continue
		}
		var err error
		switch {
		case !st.spec.requiresMerge():
			err = m.finishTask(st)
		case p == merged:
			if err = m.finishTask(st); err == nil {
				err = m.gcPartials(st)
			}
		case workers == 1:
			// A task that was never cloned needs no merge: adopt the sole
			// partial output as the final output by rename. A rename whose
			// source is gone does nothing, so a successor that replays
			// this step after its predecessor's rename is harmless.
			if err = m.store.Rename(m.ctx, partialBag(st.spec.Outputs[0], 0, st.epoch), st.spec.Outputs[0]); err == nil {
				m.mu.Lock()
				m.renameAdopts++
				st.advance(merged)
				m.mu.Unlock()
			}
		case p == running:
			err = m.scheduleMerge(st)
		default:
			continue // the merge task has yet to finish
		}
		if err != nil {
			return changed, err
		}
		changed++
	}
	return changed, nil
}

// scheduleMerge seals a task's partials, so that its merge task's removes
// terminate, and schedules the merge task.
func (m *Master) scheduleMerge(st *taskState) error {
	m.mu.Lock()
	st.advance(merging)
	m.mergeTasks++
	partials := st.partials()
	m.mu.Unlock()
	for _, p := range partials {
		if err := m.store.Seal(m.ctx, p); err != nil {
			return err
		}
	}
	return m.pushReady(m.blueprintFor(st, KindMerge, 0, partials))
}

// finishTask marks a task finished and seals any output bag all of whose
// producers have finished, making downstream tasks schedulable.
func (m *Master) finishTask(st *taskState) error {
	m.mu.Lock()
	if st.phase == finished {
		m.mu.Unlock()
		return nil
	}
	st.advance(finished)
	m.obs.finished.Inc()
	m.obs.emit(obs.EvTaskFinished, st.spec.Name, fmt.Sprintf("workers=%d", st.workers))
	var toSeal []string
	for _, out := range st.spec.Outputs {
		allDone := true
		for _, p := range m.app.Producers(out) {
			if m.tasks[p].phase != finished {
				allDone = false
				break
			}
		}
		if allDone && !m.sealed[out] {
			m.sealed[out] = true
			toSeal = append(toSeal, out)
		}
	}
	m.mu.Unlock()
	for _, b := range toSeal {
		for _, phys := range m.physicalBags(b) {
			if err := m.store.Seal(m.ctx, phys); err != nil {
				return err
			}
		}
		// A sealed shuffle edge takes no further records, so its
		// per-writer sketch state on the storage tier has served its
		// purpose. Hand the hub the edge's final map and merged sketch
		// first — short jobs (streaming windows) often seal before the
		// hub's rate-limited fetch ever ran, and this is the last chance
		// to learn the edge's key distribution — then wipe the slot. The
		// fetch is best-effort (the sketch is advisory).
		if edge := m.edges[b]; edge != nil {
			m.mu.Lock()
			tel := m.edgeTelLocked(edge)
			m.mu.Unlock()
			if stats, err := m.store.FetchSketch(m.ctx, b); err == nil && stats.Total() > 0 {
				tel.Stats = stats
			}
			m.hub.ObserveEdge(*tel)
			if err := m.store.DeleteSketch(m.ctx, b); err != nil {
				return err
			}
		}
	}
	return nil
}

// gcPartials garbage-collects a task's partial bags after its merge
// completes.
func (m *Master) gcPartials(st *taskState) error {
	m.mu.Lock()
	partials := st.partials()
	m.mu.Unlock()
	for _, p := range partials {
		if err := m.store.Delete(m.ctx, p); err != nil {
			return err
		}
	}
	return nil
}
