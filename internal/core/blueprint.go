package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/obs"
	"repro/internal/sketch"
)

// TaskKind distinguishes ordinary tasks from the merge tasks the master
// injects when a task with a merge procedure is cloned.
type TaskKind uint8

const (
	// KindTask runs a TaskSpec's Run function.
	KindTask TaskKind = iota
	// KindMerge runs a TaskSpec's Merge function over clone partials.
	KindMerge
)

// Blueprint is the unit of scheduling: "each task consists of a task
// blueprint, containing a unique task identifier and the code necessary to
// execute the task, as well as the identifiers of its input and output
// bags" (§3.1). Code travels by name: workers look the name up in their
// local App registry, which plays the role of shipped code.
type Blueprint struct {
	// ID uniquely identifies this worker instance, e.g. "count.usa/w2@e0"
	// (task count.usa, worker index 2, restart epoch 0).
	ID string `json:"id"`
	// Spec is the TaskSpec name whose Run (or Merge) function to execute.
	Spec string `json:"spec"`
	// Kind selects Run or Merge.
	Kind TaskKind `json:"kind"`
	// Worker is the worker index within the task: 0 is the original,
	// 1..k are clones.
	Worker int `json:"worker"`
	// Epoch counts task restarts after compute-node failures. Records
	// from stale epochs are ignored by the master.
	Epoch int `json:"epoch"`
	// Inputs and Outputs are the concrete bag names this worker reads and
	// writes. For a cloned task with a merge procedure, Outputs names the
	// worker's private partial bag rather than the declared output.
	Inputs  []string `json:"inputs"`
	Outputs []string `json:"outputs"`
	// ScanInputs are bags the worker reads in full without consuming.
	ScanInputs []string `json:"scanInputs,omitempty"`
	// ScheduledAt is the unix-nanosecond time the master published the
	// blueprint; the profiler's queue-wait phase is the gap to worker
	// start. Zero (e.g. a blueprint from an older encoding) reads as
	// "unknown" and contributes no queue wait.
	ScheduledAt int64 `json:"scheduledAt,omitempty"`
}

// blueprintID formats the canonical worker-instance identifier.
func blueprintID(spec string, worker, epoch int) string {
	return fmt.Sprintf("%s/w%d@e%d", spec, worker, epoch)
}

// partialBag names the private partial-output bag for a worker of a task
// whose outputs must be merged.
func partialBag(output string, worker, epoch int) string {
	return fmt.Sprintf("%s~p%d@e%d", output, worker, epoch)
}

// Encode serializes the blueprint for insertion into a work bag.
func (b *Blueprint) Encode() []byte {
	data, err := json.Marshal(b)
	if err != nil {
		panic(fmt.Sprintf("core: blueprint marshal: %v", err)) // no unmarshalable fields
	}
	return data
}

// DecodeBlueprint parses a blueprint record.
func DecodeBlueprint(data []byte) (*Blueprint, error) {
	var b Blueprint
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("core: bad blueprint record: %w", err)
	}
	return &b, nil
}

// event is a record in the running or done work bag.
type event struct {
	// TaskID is the blueprint ID the event refers to.
	TaskID string `json:"task"`
	// Spec is the blueprint's spec name.
	Spec string `json:"spec"`
	// Node is the compute node reporting the event.
	Node string `json:"node"`
	// Epoch mirrors the blueprint epoch.
	Epoch int `json:"epoch"`
	// Worker mirrors the blueprint worker index.
	Worker int `json:"worker"`
	// Merge is set for merge-task events.
	Merge bool `json:"merge,omitempty"`
	// OK is set on successful completion (done bag only).
	OK bool `json:"ok"`
	// Err carries the failure message for unsuccessful completions.
	Err string `json:"err,omitempty"`
	// Spans is the worker's profiler phase accounting, attached to done
	// events (nil when span profiling is disabled or the worker crashed).
	Spans *obs.TaskSpans `json:"spans,omitempty"`
	// Edges carries the final statistics of the shuffle edges a successful
	// worker wrote, per edge: its writers' exact leaf counts and heavy-key
	// candidates (TaskCtx.edgeStats). This is the one way edge statistics
	// reach the master, which merges them when the edge seals.
	Edges map[string]*sketch.EdgeStats `json:"edges,omitempty"`
}

func (e *event) encode() []byte {
	data, err := json.Marshal(e)
	if err != nil {
		panic(fmt.Sprintf("core: event marshal: %v", err))
	}
	return data
}

func decodeEvent(data []byte) (*event, error) {
	var e event
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("core: bad event record: %w", err)
	}
	return &e, nil
}
