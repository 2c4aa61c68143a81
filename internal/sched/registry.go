package sched

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// Registry is the job registry: it admits submissions, enforces the
// concurrency limit, queues the overflow, and guarantees that no two
// live jobs can ever touch the same physical bag.
type Registry struct {
	mu   sync.Mutex
	cfg  Config
	jobs map[string]*regEntry
	// queue holds queued job ids in submission order.
	queue   []string
	running int

	// cached metric handles (nil-safe no-ops when unobserved)
	mSubmitted *obs.Counter
	mQueued    *obs.Counter
	mDepth     *obs.Gauge
	mRunning   *obs.Gauge
}

type regEntry struct {
	claims NameClaims
	weight int
	state  State
}

// NewRegistry returns an empty registry.
func NewRegistry(cfg Config) *Registry {
	return &Registry{cfg: cfg, jobs: make(map[string]*regEntry)}
}

// Bind connects the registry to an observer (call before submissions;
// nil leaves it unobserved).
func (r *Registry) Bind(o *obs.Observer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mSubmitted = o.Counter("hurricane_sched_jobs_submitted_total")
	r.mQueued = o.Counter("hurricane_sched_jobs_queued_total")
	r.mDepth = o.Gauge("hurricane_sched_queue_depth")
	r.mRunning = o.Gauge("hurricane_sched_jobs_running")
}

// Submit validates and registers a job. It returns start=true when the
// job may begin executing immediately, start=false when it was queued
// behind the concurrency limit. Submission fails on a duplicate id, a
// bag-name collision (within the job's own claims or against any live
// job's), or a full queue.
//
// A finished job's claims remain registered until Release, so a later
// submission reusing its bag names fails loudly instead of silently
// reading the predecessor's leftover data.
func (r *Registry) Submit(id string, claims NameClaims, weight int) (start bool, err error) {
	if id == "" {
		return false, fmt.Errorf("sched: job with empty name")
	}
	if weight <= 0 {
		weight = 1 // the default fair-share weight
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.jobs[id]; dup {
		return false, fmt.Errorf("sched: job %q already exists", id)
	}
	if msg, bad := claims.SelfConflict(); bad {
		return false, fmt.Errorf("sched: job %q: %s", id, msg)
	}
	for other, e := range r.jobs {
		if msg, bad := claims.Conflict(e.claims); bad {
			return false, fmt.Errorf("sched: job %q vs job %q: %s", id, other, msg)
		}
	}
	e := &regEntry{claims: claims, weight: weight}
	if r.cfg.MaxConcurrent > 0 && r.running >= r.cfg.MaxConcurrent {
		if r.cfg.MaxQueued > 0 && len(r.queue) >= r.cfg.MaxQueued {
			return false, fmt.Errorf("sched: job %q rejected: %d running, %d queued (limits %d/%d)",
				id, r.running, len(r.queue), r.cfg.MaxConcurrent, r.cfg.MaxQueued)
		}
		e.state = StateQueued
		r.jobs[id] = e
		r.queue = append(r.queue, id)
		r.mSubmitted.Inc()
		r.mQueued.Inc()
		r.mDepth.Set(int64(len(r.queue)))
		return false, nil
	}
	e.state = StateRunning
	r.jobs[id] = e
	r.running++
	r.mSubmitted.Inc()
	r.mRunning.Set(int64(r.running))
	return true, nil
}

// Finish records a running job's completion and returns the queued job
// ids (in submission order) that the freed concurrency slot admits; the
// caller must start them. The job's claims stay registered.
func (r *Registry) Finish(id string, failed bool) (admit []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.jobs[id]
	if e == nil || e.state != StateRunning {
		return nil
	}
	if failed {
		e.state = StateFailed
	} else {
		e.state = StateDone
	}
	r.running--
	for len(r.queue) > 0 && (r.cfg.MaxConcurrent == 0 || r.running < r.cfg.MaxConcurrent) {
		next := r.queue[0]
		r.queue = r.queue[1:]
		ne := r.jobs[next]
		if ne == nil || ne.state != StateQueued {
			continue
		}
		ne.state = StateRunning
		r.running++
		admit = append(admit, next)
	}
	r.mDepth.Set(int64(len(r.queue)))
	r.mRunning.Set(int64(r.running))
	return admit
}

// Release drops a finished job's registration and name claims (after the
// caller discarded or deliberately retained its bags).
func (r *Registry) Release(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.jobs[id]; e != nil && e.state != StateRunning && e.state != StateQueued {
		delete(r.jobs, id)
	}
}

// State reports a job's lifecycle state.
func (r *Registry) State(id string) (State, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.jobs[id]
	if !ok {
		return 0, false
	}
	return e.state, true
}

// Weight reports a job's fair-share weight.
func (r *Registry) Weight(id string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.jobs[id]; e != nil {
		return e.weight
	}
	return 0
}
