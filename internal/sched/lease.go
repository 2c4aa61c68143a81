package sched

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Leases implements weighted fair-share slot leasing between concurrent
// jobs. Every worker slot a job claims — original task workers, clones,
// speculative re-executions — is billed to its lease. The allocator is work-conserving: a job may run beyond
// its fair share while no other job is starved (starved = has unclaimed
// ready blueprints and runs below its share), but the moment a neighbor
// starves, over-share jobs stop acquiring and become preemption targets.
type Leases struct {
	mu       sync.Mutex
	disabled bool
	total    int
	jobs     map[string]*lease
	o        *obs.Observer // nil-safe; set once by Bind before use
}

type lease struct {
	weight  int
	running int // slots currently claimed cluster-wide
	demand  int // unclaimed ready blueprints (sampled)
	share   int // current fair-share allotment

	// cached per-job metric handles (nil-safe no-ops when unobserved)
	mGrants  *obs.Counter
	mDenials *obs.Counter
}

// NewLeases returns a lease allocator. disabled puts it in pass-through
// mode: Acquire always succeeds and Plan never preempts (the
// unarbitrated baseline).
func NewLeases(disabled bool) *Leases {
	return &Leases{disabled: disabled, jobs: make(map[string]*lease)}
}

// FairShare reports whether fair-share arbitration is active.
func (l *Leases) FairShare() bool { return !l.disabled }

// Bind connects the allocator to an observer (call before jobs are
// added; nil leaves it unobserved).
func (l *Leases) Bind(o *obs.Observer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.o = o
}

// SetTotal updates the cluster-wide slot count (compute-node churn).
func (l *Leases) SetTotal(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total = n
	l.reshare()
}

// Add registers a job with the given weight.
func (l *Leases) Add(job string, weight int) {
	if weight <= 0 {
		weight = 1
	}
	l.mu.Lock()
	j := &lease{
		weight:   weight,
		mGrants:  l.o.Counter("hurricane_sched_lease_grants_total", "job", job),
		mDenials: l.o.Counter("hurricane_sched_lease_denials_total", "job", job),
	}
	l.jobs[job] = j
	l.reshare()
	share := j.share
	o := l.o
	l.mu.Unlock()
	o.Emit(obs.EvLeaseGrant, job, job, fmt.Sprintf("weight=%d share=%d", weight, share))
}

// Remove unregisters a job (completion). Its claimed slots drain through
// Release as the workers exit.
func (l *Leases) Remove(job string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.jobs, job)
	l.reshare()
}

// SetDemand records a job's sampled demand: the number of ready
// blueprints no node has claimed yet. It reports whether the demand
// changed — which can change who Acquire turns away.
func (l *Leases) SetDemand(job string, pending int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	j := l.jobs[job]
	if j == nil || j.demand == pending {
		return false
	}
	j.demand = pending
	return true
}

// reshare recomputes fair shares: floor(total · w/W) per job, remainder
// distributed by largest fractional part (ties by job id), minimum 1 so
// every job can always make progress. Called with l.mu held.
func (l *Leases) reshare() {
	if len(l.jobs) == 0 {
		return
	}
	ids := make([]string, 0, len(l.jobs))
	totalW := 0
	for id, j := range l.jobs {
		ids = append(ids, id)
		totalW += j.weight
	}
	sort.Strings(ids)
	type frac struct {
		id  string
		rem int // numerator of the fractional part (total·w mod W)
	}
	fracs := make([]frac, 0, len(ids))
	assigned := 0
	for _, id := range ids {
		j := l.jobs[id]
		j.share = l.total * j.weight / totalW
		assigned += j.share
		fracs = append(fracs, frac{id, l.total * j.weight % totalW})
	}
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].rem > fracs[b].rem })
	for i := 0; i < l.total-assigned && i < len(fracs); i++ {
		l.jobs[fracs[i].id].share++
	}
	for _, j := range l.jobs {
		if j.share < 1 {
			j.share = 1
		}
	}
}

// Acquire asks to bill one more slot to the job. Within the job's share
// it always succeeds; beyond it, borrowing is allowed only while no
// other job is starved. The caller must Release the slot exactly once
// when the worker exits (or when no blueprint was claimed after all).
func (l *Leases) Acquire(job string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	j := l.jobs[job]
	if j == nil {
		return false // unknown (already completed) job: nothing to claim for
	}
	if l.disabled || j.running < j.share || !l.anyStarvedLocked(job) {
		j.running++
		j.mGrants.Inc()
		return true
	}
	j.mDenials.Inc()
	return false
}

// Release returns one billed slot.
func (l *Leases) Release(job string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if j := l.jobs[job]; j != nil && j.running > 0 {
		j.running--
	}
}

// anyStarvedLocked reports whether any job other than skip has demand it
// cannot place within its fair share.
func (l *Leases) anyStarvedLocked(skip string) bool {
	for id, j := range l.jobs {
		if id != skip && j.demand > 0 && j.running < j.share {
			return true
		}
	}
	return false
}

// Running reports the slots currently billed to the job.
func (l *Leases) Running(job string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if j := l.jobs[job]; j != nil {
		return j.running
	}
	return 0
}

// Share reports the job's current fair-share allotment.
func (l *Leases) Share(job string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if j := l.jobs[job]; j != nil {
		return j.share
	}
	return 0
}

// Priorities snapshots the claim order for a set of jobs in one lock
// acquisition: lower value = claim first (lowest running-to-share
// ratio, so freed slots flow to whoever is furthest below fair share).
// Unknown (completed) jobs sort last.
func (l *Leases) Priorities(jobs []string) map[string]float64 {
	out := make(map[string]float64, len(jobs))
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, job := range jobs {
		j := l.jobs[job]
		if j == nil {
			out[job] = 1 << 20
			continue
		}
		share := j.share
		if share < 1 {
			share = 1
		}
		out[job] = float64(j.running) / float64(share)
	}
	return out
}

// CloneBudget caps a job's mitigation budget (extra clone workers this
// control round) by its lease: with a starved neighbor the job may only
// clone up to its fair share; otherwise the physical free-slot count
// rules, keeping the allocator work-conserving.
func (l *Leases) CloneBudget(job string, free int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	j := l.jobs[job]
	if j == nil {
		return 0
	}
	if l.disabled || !l.anyStarvedLocked(job) {
		return free
	}
	headroom := j.share - j.running
	if headroom < 0 {
		headroom = 0
	}
	if headroom < free {
		return headroom
	}
	return free
}

// Plan computes the preemption round: for every starved job's unmet
// deficit, over-share jobs are asked to yield clone workers (number per
// job, deterministic over sorted ids). The caller asks each named job's
// master to yield; the master yields at most what is safely yieldable.
func (l *Leases) Plan() map[string]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.disabled || len(l.jobs) < 2 {
		return nil
	}
	ids := make([]string, 0, len(l.jobs))
	for id := range l.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	deficit := 0
	for _, id := range ids {
		j := l.jobs[id]
		if j.demand > 0 && j.running < j.share {
			want := j.share - j.running
			if j.demand < want {
				want = j.demand
			}
			deficit += want
		}
	}
	if deficit == 0 {
		return nil
	}
	out := make(map[string]int)
	for _, id := range ids {
		if deficit == 0 {
			break
		}
		j := l.jobs[id]
		over := j.running - j.share
		if over <= 0 {
			continue
		}
		n := over
		if n > deficit {
			n = deficit
		}
		out[id] = n
		deficit -= n
	}
	return out
}
