// Package sched is Hurricane's multi-job scheduler control plane: the
// pure decision logic that lets one cluster execute many independent DAG
// jobs concurrently.
//
// The paper executes exactly one application per cluster; its skew
// mitigation (cloning) therefore competes only with the job's own tasks.
// On shared hardware a
// single skewed job's clones would monopolize every worker slot, so the
// scheduler arbitrates *across* jobs:
//
//   - a Registry validates that a submitted job's name claims — its
//     declared bag names and the stems its partition and partial bags
//     grow from, which are also exactly what releasing the job deletes —
//     overlap neither each other nor any live job's;
//   - Leases implements weighted fair-share slot leasing: every claimed
//     worker slot — original tasks and clones alike — is billed to the
//     owning job's lease. A job
//     may borrow beyond its share while no neighbor is starved, and a
//     starved neighbor triggers both claim gating (over-share jobs stop
//     claiming) and preemption (the over-share job's clone workers are
//     asked to yield at their next chunk boundary).
//
// Like internal/ctrl, this package deliberately does not import
// internal/core: all state it needs is pushed in (slot totals, running
// counts, each blueprint pushed to or claimed from a ready bag), and all
// state it changes is returned as
// decisions (claim verdicts, preemption plans). That keeps
// the fair-share math unit-testable with no cluster behind it.
package sched

// Config tunes the multi-job scheduler.
type Config struct {
	// DisableFairShare turns off slot leasing and preemption: compute
	// nodes claim blueprints from any job's ready bag as slots free up
	// (the unarbitrated baseline the sched benchmark measures against).
	DisableFairShare bool
}

// State is a job's lifecycle state.
type State int

const (
	// StateRunning: executing on the cluster (from submission on).
	StateRunning State = iota
	// StateDone: completed successfully. Name claims are retained until
	// released so a later job cannot silently collide with its bags.
	StateDone
	// StateFailed: completed with an error.
	StateFailed
)

// String returns the lowercase state name.
func (s State) String() string {
	switch s {
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
