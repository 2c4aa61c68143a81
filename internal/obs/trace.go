package obs

import (
	"sync"
	"time"
)

// EventType names one kind of engine decision. The vocabulary is closed
// on purpose — the trace is a decision log, not a logging framework.
type EventType string

const (
	// EvTaskCloned: the master started a clone worker (subject = task).
	EvTaskCloned EventType = "TaskCloned"
	// EvCloneYielded: a clone was asked to wind down for fair-share
	// preemption (subject = task/worker).
	EvCloneYielded EventType = "CloneYielded"
	// EvLeaseGrant: the lease allocator billed a slot to a job.
	EvLeaseGrant EventType = "LeaseGrant"
	// EvLeasePreempt: the scheduler asked a job to yield clone slots to
	// a starved neighbor (detail = slot count).
	EvLeasePreempt EventType = "LeasePreempt"
	// EvWindowSealed: a streaming window's ingest sealed (subject =
	// window job id).
	EvWindowSealed EventType = "WindowSealed"
	// EvWindowRetried: a streaming window was reset and re-run after a
	// failure (subject = window job id).
	EvWindowRetried EventType = "WindowRetried"
	// EvJoinStrategyChosen: the planner picked a join's physical form,
	// broadcast or repartition (subject = join edge or node, detail =
	// form and reason).
	EvJoinStrategyChosen EventType = "JoinStrategyChosen"
	// EvTaskScheduled: the master published a task's blueprints (subject
	// = task).
	EvTaskScheduled EventType = "TaskScheduled"
	// EvTaskFinished: all workers of a task completed (subject = task).
	EvTaskFinished EventType = "TaskFinished"
	// EvStorageSlowOp: a storage operation exceeded the wire meter's
	// slow-op threshold (subject = node or bag, detail = op, bag, and
	// duration). Emitted by the storage-tier meters (transport.Meter).
	EvStorageSlowOp EventType = "StorageSlowOp"
)

// Event is one trace entry. TMicros is monotonic time since the trace
// was created, so event deltas are meaningful even across wall-clock
// adjustments.
type Event struct {
	Seq     uint64    `json:"seq"`
	TMicros int64     `json:"t_us"`
	Type    EventType `json:"type"`
	Job     string    `json:"job,omitempty"`
	Subject string    `json:"subject,omitempty"`
	Detail  string    `json:"detail,omitempty"`
}

// DefaultTraceCap is the default trace ring capacity.
const DefaultTraceCap = 4096

// Trace is a bounded, mutex-guarded event log. At capacity it degrades
// by event class rather than uniformly: lifecycle chatter (schedule /
// finish / lease-grant / window-seal notifications, which dominate the
// volume on long runs) is dropped new-at-cap, while control-plane
// *decision* events (clones, yields, preemptions, retries, join
// choices) evict the oldest lifecycle event —
// or, failing that, the oldest event outright — so the latest mitigation
// decisions are always retained. Every displaced event is counted in
// Dropped. The buffer never blocks the emitter and never reallocates
// past its capacity. A nil *Trace is a no-op.
type Trace struct {
	mu      sync.Mutex
	start   time.Time
	ring    []Event
	seq     uint64
	dropped uint64
	// dropCtr, when bound, mirrors every displacement into a registry
	// counter (hurricane_trace_dropped_total) so ring pressure shows up
	// on /metrics and the timeline without calling Go APIs.
	dropCtr *Counter
}

// decisionEvent classifies the event types whose latest occurrences must
// survive a full ring — the control-plane decisions skew forensics are
// about. The rest (lifecycle notifications) are the evictable bulk.
func decisionEvent(typ EventType) bool {
	switch typ {
	case EvTaskCloned, EvCloneYielded, EvLeasePreempt,
		EvWindowRetried, EvJoinStrategyChosen, EvStorageSlowOp:
		return true
	}
	return false
}

// NewTrace returns a trace ring with the given capacity (cap <= 0
// selects DefaultTraceCap).
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Trace{start: time.Now(), ring: make([]Event, 0, capacity)}
}

// BindDropCounter mirrors future displacement counts into ctr (pass the
// registry's hurricane_trace_dropped_total handle). Call during setup,
// before concurrent emitters start.
func (t *Trace) BindDropCounter(ctr *Counter) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.dropCtr = ctr
	t.mu.Unlock()
}

// Emit appends one event. At capacity, lifecycle events are dropped;
// decision events evict the oldest lifecycle event (oldest overall when
// the ring holds only decisions). Either way the displaced event counts
// toward Dropped. The eviction scan is linear in the ring, which is fine
// at control-plane rates — a full ring means the job already emitted
// thousands of events.
func (t *Trace) Emit(typ EventType, job, subject, detail string) {
	if t == nil {
		return
	}
	now := time.Since(t.start).Microseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) == cap(t.ring) {
		if !decisionEvent(typ) {
			t.dropped++
			t.dropCtr.Inc()
			return
		}
		evict := 0
		for i := range t.ring {
			if !decisionEvent(t.ring[i].Type) {
				evict = i
				break
			}
		}
		copy(t.ring[evict:], t.ring[evict+1:])
		t.ring = t.ring[:len(t.ring)-1]
		t.dropped++
		t.dropCtr.Inc()
	}
	t.seq++
	t.ring = append(t.ring, Event{
		Seq: t.seq, TMicros: now, Type: typ,
		Job: job, Subject: subject, Detail: detail,
	})
}

// Events returns a copy of the retained events, oldest first. job and
// typ filter when non-empty.
func (t *Trace) Events(job string, typ EventType) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.ring))
	for _, e := range t.ring {
		if job != "" && e.Job != job {
			continue
		}
		if typ != "" && e.Type != typ {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Len returns the number of retained events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// Dropped returns the number of events dropped at capacity.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
