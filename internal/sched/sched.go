// Package sched is Hurricane's multi-job scheduler control plane: the
// pure decision logic that lets one cluster admit, queue, and execute
// many independent DAG jobs concurrently.
//
// The paper executes exactly one application per cluster; its skew
// mitigations (cloning, speculative re-execution)
// therefore compete only with the job's own tasks. On shared hardware a
// single skewed job's clones would monopolize every worker slot, so the
// scheduler arbitrates *across* jobs:
//
//   - a Registry admits jobs, validates that their physical bag names
//     (including derived partition, control, and partial bags) cannot
//     collide with any live job's, and queues submissions beyond the
//     concurrency limit;
//   - Leases implements weighted fair-share slot leasing: every claimed
//     worker slot — original tasks, clones, speculative re-executions —
//     is billed to the owning job's lease. A job
//     may borrow beyond its share while no neighbor is starved, and a
//     starved neighbor triggers both claim gating (over-share jobs stop
//     claiming) and preemption (the over-share job's clone workers are
//     asked to yield at their next chunk boundary).
//
// Like internal/ctrl, this package deliberately does not import
// internal/core: all state it needs is pushed in (slot totals, running
// counts, demand probes), and all state it changes is returned as
// decisions (admit lists, claim verdicts, preemption plans). That keeps
// the fair-share math unit-testable with no cluster behind it.
package sched

import "time"

// Config tunes the multi-job scheduler.
type Config struct {
	// MaxConcurrent caps the number of jobs running at once; submissions
	// beyond it are queued. 0 means unlimited (every submission starts
	// immediately).
	MaxConcurrent int
	// MaxQueued caps the submission queue when MaxConcurrent is in
	// effect; a submission past both limits is rejected. 0 = unlimited.
	MaxQueued int
	// DefaultWeight is the fair-share weight assigned to jobs that do
	// not set one (default 1).
	DefaultWeight int
	// DisableFairShare turns off slot leasing and preemption: compute
	// nodes claim blueprints from any job's ready bag as slots free up
	// (the unarbitrated baseline the sched benchmark measures against).
	DisableFairShare bool
	// Interval is the cadence of the cluster's scheduling pass (demand
	// sampling and preemption planning). Default 20ms.
	Interval time.Duration
}

// Fill applies defaults.
func (c *Config) Fill() {
	if c.DefaultWeight <= 0 {
		c.DefaultWeight = 1
	}
	if c.Interval <= 0 {
		c.Interval = 20 * time.Millisecond
	}
}

// State is a job's lifecycle state in the registry.
type State int

const (
	// StateQueued: admitted but waiting for a concurrency slot.
	StateQueued State = iota
	// StateRunning: executing on the cluster.
	StateRunning
	// StateDone: completed successfully. Name claims are retained until
	// released so a later job cannot silently collide with its bags.
	StateDone
	// StateFailed: completed with an error.
	StateFailed
)

// String returns the lowercase state name.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	default:
		return "unknown"
	}
}
