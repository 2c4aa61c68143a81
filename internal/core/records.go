package core

import (
	"fmt"
	"time"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/ctrl"
	"repro/internal/obs"
)

// recordBag is one of the work bags the master learns from: the cause that
// names it, a non-consuming scanner whose per-slot cursors make each scan
// incremental (a new master's first one replays the whole bag, §4.4), how a
// record folds into master state, and a count of the scans — proportional to
// record events, where hurricane_ctrl_snapshots_total is to time.
type recordBag struct {
	cause  ctrl.Cause
	scan   *bag.Scanner
	absorb func(chunk.Chunk) error // called with m.mu held
	scans  *obs.Counter
}

// absorbRecords folds the new records of the bags causes names into master
// state, returning how many records were seen. Absorbing is idempotent,
// which is what lets a recovered master rebuild by rescanning from the
// start, and within a bag it is order-free: evidence only advances a task.
func (m *Master) absorbRecords(causes ctrl.Cause) (seen int, err error) {
	for _, rb := range m.records {
		if causes&rb.cause == 0 {
			continue
		}
		rb.scans.Inc()
		if _, err := rb.scan.Drain(m.ctx, func(c chunk.Chunk) error {
			seen++
			m.mu.Lock()
			defer m.mu.Unlock()
			return rb.absorb(c)
		}); err != nil {
			return seen, err
		}
	}
	return seen, nil
}

// absorbReady folds one ready-bag blueprint (not yet claimed, or claimed
// long ago: the scan does not consume) into task state.
func (m *Master) absorbReady(c chunk.Chunk) error {
	bp, err := DecodeBlueprint(c)
	if err != nil {
		return err
	}
	m.applyScheduledEvidence(bp.Spec, bp.Epoch, bp.Worker, bp.Kind == KindMerge)
	// The ready bag carries full blueprints, so it is where the master
	// learns which leaf each worker of a partitioned consumer pulls
	// from — the workers it pushed itself and a predecessor's alike.
	if st := m.tasks[bp.Spec]; bp.Kind == KindTask && st != nil && bp.Epoch == st.epoch && m.edgeOf(st.spec) != nil {
		st.leaf[bp.Worker] = bp.Inputs[0]
	}
	return nil
}

// absorbRunning folds one running-bag start event into task state.
func (m *Master) absorbRunning(c chunk.Chunk) error {
	e, err := decodeEvent(c)
	if err != nil {
		return err
	}
	m.applyScheduledEvidence(e.Spec, e.Epoch, e.Worker, e.Merge)
	if st := m.tasks[e.Spec]; st != nil && e.Epoch == st.epoch {
		if _, done := st.doneWorkers[e.Worker]; !done || e.Merge {
			st.running[e.TaskID] = e.Node
			// Suspect a node from the moment it runs a task: one that
			// dies before its first heartbeat times out all the same.
			if m.nodes[e.Node] == nil {
				m.nodes[e.Node] = &nodeState{lastBeat: time.Now()}
			}
		}
	}
	return nil
}

// applyScheduledEvidence records that worker w of (spec, epoch), or its
// merge task, was scheduled, whether by this master instance or a
// predecessor.
func (m *Master) applyScheduledEvidence(spec string, epoch, worker int, isMerge bool) {
	st := m.tasks[spec]
	if st == nil || epoch < st.epoch {
		return
	}
	if epoch > st.epoch {
		// Evidence from a future epoch (scheduled by a predecessor after
		// a recovery this instance hasn't replayed yet).
		st.reset(epoch)
	}
	if isMerge {
		st.advance(merging)
		return
	}
	st.advance(running)
	st.workers = max(st.workers, worker+1)
}

// absorbDone folds one done-bag event into task state.
func (m *Master) absorbDone(c chunk.Chunk) error {
	e, err := decodeEvent(c)
	if err != nil {
		return err
	}
	if m.seenEvents[e.TaskID+"/done"] {
		return nil
	}
	m.seenEvents[e.TaskID+"/done"] = true
	st := m.tasks[e.Spec]
	if st == nil {
		return fmt.Errorf("core: done event for unknown task %q", e.Spec)
	}
	if e.Epoch != st.epoch {
		return nil // stale epoch: ignore
	}
	if !e.OK {
		m.jobErr = fmt.Errorf("core: task %s failed on %s: %s", e.TaskID, e.Node, e.Err)
		return nil
	}
	delete(st.running, e.TaskID)
	if e.Spans != nil {
		m.spans = append(m.spans, *e.Spans)
		// The straggler signal: a scraper of /metrics reads the
		// p99/p50 spread of this per-job histogram.
		m.obs.taskSpan.Observe(e.Spans.WallNS())
	}
	if e.Merge {
		st.advance(merged)
		return nil
	}
	m.applyScheduledEvidence(e.Spec, e.Epoch, e.Worker, false)
	st.doneWorkers[e.Worker] = true
	delete(st.yielding, e.Worker)
	return nil
}
