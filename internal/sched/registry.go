package sched

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// Registry is the job registry: it guarantees that no two live jobs can
// ever touch the same physical bag.
type Registry struct {
	mu      sync.Mutex
	jobs    map[string]*regEntry
	running int

	// cached metric handles (nil-safe no-ops when unobserved)
	mSubmitted *obs.Counter
	mRunning   *obs.Gauge
}

type regEntry struct {
	claims  NameClaims
	weight  int
	running bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{jobs: make(map[string]*regEntry)}
}

// Bind connects the registry to an observer (call before submissions;
// nil leaves it unobserved).
func (r *Registry) Bind(o *obs.Observer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mSubmitted = o.Counter("hurricane_sched_jobs_submitted_total")
	r.mRunning = o.Gauge("hurricane_sched_jobs_running")
}

// Submit validates and registers a job, which runs from then on.
// Submission fails on a duplicate id or a bag-name collision (within the
// job's own claims or against any live job's).
//
// A finished job's claims remain registered until Release, so a later
// submission reusing its bag names fails loudly instead of silently
// reading the predecessor's leftover data.
func (r *Registry) Submit(id string, claims NameClaims, weight int) error {
	if id == "" {
		return fmt.Errorf("sched: job with empty name")
	}
	if weight <= 0 {
		weight = 1 // the default fair-share weight
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.jobs[id]; dup {
		return fmt.Errorf("sched: job %q already exists", id)
	}
	if msg, bad := claims.SelfConflict(); bad {
		return fmt.Errorf("sched: job %q: %s", id, msg)
	}
	for other, e := range r.jobs {
		if msg, bad := claims.Conflict(e.claims); bad {
			return fmt.Errorf("sched: job %q vs job %q: %s", id, other, msg)
		}
	}
	r.jobs[id] = &regEntry{claims: claims, weight: weight, running: true}
	r.running++
	r.mSubmitted.Inc()
	r.mRunning.Set(int64(r.running))
	return nil
}

// Finish records a running job's completion. The job's claims stay
// registered.
func (r *Registry) Finish(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.jobs[id]
	if e == nil || !e.running {
		return
	}
	e.running = false
	r.running--
	r.mRunning.Set(int64(r.running))
}

// Release drops a finished job's registration and name claims (after the
// caller discarded or deliberately retained its bags).
func (r *Registry) Release(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.jobs[id]; e != nil && !e.running {
		delete(r.jobs, id)
	}
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
