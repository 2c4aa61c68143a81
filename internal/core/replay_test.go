package core

import (
	"context"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/ctrl"
)

// cloneUpTo clones one task, one worker per control pass, until it has
// handed out the given number of workers. Unlike ctrl.ForceClones it skips
// placement, which refuses a clone once the task's input reads dry: sum
// drains its input fast, and TestReplayOrderFree needs it cloned every run.
type cloneUpTo struct {
	task    string
	workers int
}

func (cloneUpTo) Name() string { return "clone-up-to" }

func (p cloneUpTo) Evaluate(snap *ctrl.Snapshot) []ctrl.Action {
	t := snap.Tasks[p.task]
	if t == nil || !t.Scheduled || t.Finished || t.Workers >= p.workers {
		return nil
	}
	return []ctrl.Action{ctrl.CloneTask{Task: p.task, Epoch: t.Epoch}}
}

// TestReplayOrderFree: a master's state is a fold over the work bags, and
// a bag is unordered (§4.1): a scan meets its slots, and a successor master
// its records, in any order. The job has a cloned task with a merge (sum),
// a task adopted by rename (solo, never cloned) and a recovery epoch bump
// (copy, its node crashed). Fresh masters replay its retained work bags —
// ready, then running, then done, each bag's records shuffled by a seed —
// and must each reach the per-task state an in-order replay reaches.
func TestReplayOrderFree(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := testClusterConfig()
	cfg.Master.Policies = []ctrl.Policy{cloneUpTo{task: "sum", workers: 3}}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	const n = 20000
	var processed atomic.Int64
	gate := make(chan struct{})
	app := gatedSumApp(&processed, gate)
	sum := app.Task("sum")
	app.SourceBag("in2").Bag("solo")
	app.AddTask(TaskSpec{Name: "solo", Inputs: []string{"in2"}, Outputs: []string{"solo"},
		NoClone: true, Run: sum.Run, Merge: sum.Merge})
	loadInts(t, ctx, c.Store(), "in", n)
	loadInts(t, ctx, c.Store(), "in2", 100)
	h, err := c.SubmitJob(ctx, app, JobConfig{Raw: true})
	if err != nil {
		t.Fatal(err)
	}
	for processed.Load() < n/10 {
		if ctx.Err() != nil {
			t.Fatal("timed out waiting for progress")
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.CrashComputeNode(runningNode(t, ctx, h.Master(), "copy")); err != nil {
		t.Fatal(err)
	}
	close(gate)
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := readSum(t, ctx, c.Store()), int64(n)*(n-1)/2; got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	if got := readSumBag(t, ctx, c.Store(), "solo"); got != 99*100/2 {
		t.Fatalf("solo = %d, want %d", got, 99*100/2)
	}
	stats := h.Master().Stats()
	if stats.Recoveries == 0 || stats.MergeTasks == 0 || stats.RenameAdopts == 0 {
		t.Fatalf("the job lacks a recovery, a merge or a rename: %+v", stats)
	}

	wb := h.Master().WorkBags()
	var bags [3][]chunk.Chunk // ready, running, done
	for i, name := range []string{wb.readyName(), wb.runningName(), wb.doneName()} {
		if _, err := c.Store().Scanner(name).Drain(ctx, func(rec chunk.Chunk) error {
			bags[i] = append(bags[i], slices.Clone(rec))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// replay folds the bags into a fresh master, each bag's records in the
	// order shuffle leaves them.
	replay := func(shuffle func([]chunk.Chunk)) *Master {
		m := newMaster(h.app, c.Store(), &jobControl{c: c, job: h.id}, nil, MasterConfig{}, cfg.Node.beat())
		absorb := [3]func(chunk.Chunk) error{m.absorbReady, m.absorbRunning, m.absorbDone}
		for i := range bags {
			recs := slices.Clone(bags[i])
			shuffle(recs)
			for _, rec := range recs {
				m.mu.Lock()
				err := absorb[i](rec)
				m.mu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		if m.jobErr != nil {
			t.Fatal(m.jobErr)
		}
		return m
	}
	state := func(m *Master) map[string]string {
		out := make(map[string]string, len(m.tasks))
		for name, st := range m.tasks {
			out[name] = fmt.Sprintf("epoch=%d phase=%d workers=%d done=%v",
				st.epoch, st.phase, st.workers, slices.Sorted(maps.Keys(st.doneWorkers)))
		}
		return out
	}
	inOrder := replay(func([]chunk.Chunk) {})
	copyT, sumT, soloT := inOrder.tasks["copy"], inOrder.tasks["sum"], inOrder.tasks["solo"]
	if copyT.epoch == 0 || sumT.phase != merged || sumT.workers < 2 || soloT.workers != 1 {
		t.Fatalf("in-order replay lacks a case: %v", state(inOrder))
	}
	want := state(inOrder)
	for seed := range uint64(20) {
		r := rand.New(rand.NewPCG(seed, 0))
		got := state(replay(func(recs []chunk.Chunk) {
			r.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		}))
		if !maps.Equal(got, want) {
			t.Fatalf("seed %d: replay reached\n%v\nin order:\n%v", seed, got, want)
		}
	}
}
