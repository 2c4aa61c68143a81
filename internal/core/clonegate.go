package core

import (
	"fmt"
	"sync"
	"time"
)

// cloneGateWait bounds how long HoldForClone's first worker waits for a
// clone: far above the few policy passes a forced clone takes, even on a
// loaded host.
const cloneGateWait = 10 * time.Second

// HoldForClone is the gate of a test that must see task cloned. It makes
// the task's first worker wait, before its body, until a clone of the task
// starts, so a forced clone (ctrl.ForceClones) finds the input still full
// however fast the host would drain it; a clone is placed only while its
// input has work left. If no clone starts within a bounded wait, the first
// worker fails, and with it the job, with an error that says so. task must
// not consume a partitioned edge: there workers 1..P−1 own leaves and are
// not clones.
func HoldForClone(task *TaskSpec) {
	once, cloned := new(sync.Once), make(chan struct{})
	name, run := task.Name, task.Run
	task.Run = func(tc *TaskCtx) error {
		if tc.Blueprint().Worker > 0 {
			once.Do(func() { close(cloned) })
		}
		timer := time.NewTimer(cloneGateWait)
		defer timer.Stop()
		select {
		case <-cloned:
		case <-timer.C:
			return fmt.Errorf("core: no clone of %s started within %v", name, cloneGateWait)
		case <-tc.Context().Done():
			return tc.Context().Err()
		}
		return run(tc)
	}
}
