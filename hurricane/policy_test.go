package hurricane

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// eagerClonePolicy is a minimal custom policy registered through the
// public surface: it clones the "work" task on every snapshot where the
// task is running with a single worker, ignoring overload signals
// entirely. It exists to prove the Policy extension point works end to
// end on a real cluster.
type eagerClonePolicy struct {
	evaluations atomic.Int64
}

func (*eagerClonePolicy) Name() string { return "eager-clone" }

func (p *eagerClonePolicy) Evaluate(snap *Snapshot) []Action {
	p.evaluations.Add(1)
	t := snap.Tasks["work"]
	if t == nil || !t.Scheduled || t.Finished || t.Workers != 1 || t.DoneWorkers > 0 {
		return nil
	}
	return []Action{CloneTask{Task: "work", Epoch: t.Epoch}}
}

// TestCustomPolicyRegistration runs a job with MasterConfig.Policies set
// to a single custom policy: the engine must consult it (and only it) and
// apply its clone action.
func TestCustomPolicyRegistration(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	custom := &eagerClonePolicy{}
	cfg := testClusterConfig()
	cfg.Node.OverloadThreshold = 1.5 // reactive signals off: only the custom policy can clone
	cfg.Master.Policies = []Policy{custom}
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	app := NewApp("custom").SourceBag("in").Bag("out")
	app.AddTask(TaskSpec{
		Name:    "work",
		Inputs:  []string{"in"},
		Outputs: []string{"out"},
		Run: func(tc *TaskCtx) error {
			w := NewWriter(tc, 0, Int64Of)
			return ForEach(tc, 0, Int64Of, func(v int64) error {
				for i := 0; i < 200; i++ { // simulated work so the job outlives a snapshot
					if tc.Context().Err() != nil {
						return tc.Context().Err()
					}
				}
				return w.Write(v)
			})
		},
	})

	const n = 50000
	vals := make([]int64, n)
	var want int64
	for i := range vals {
		vals[i] = int64(i)
		want += int64(i)
	}
	store := cluster.Store()
	if err := Load(ctx, store, "in", Int64Of, vals); err != nil {
		t.Fatal(err)
	}
	if err := Seal(ctx, store, "in"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(ctx, app); err != nil {
		t.Fatal(err)
	}

	out, err := Collect(ctx, store, "out", Int64Of)
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	for _, v := range out {
		got += v
	}
	if got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	if custom.evaluations.Load() == 0 {
		t.Fatal("custom policy was never evaluated")
	}
	if clones := cluster.Master().Stats().Clones; clones == 0 {
		t.Fatal("custom policy's clone action was never applied")
	}
}

// TestEmptyPolicySetDisablesMitigation: an explicit empty policy slice is
// "no mitigation at all", distinct from nil (the default set).
func TestEmptyPolicySetDisablesMitigation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cfg := testClusterConfig()
	cfg.Node.OverloadThreshold = 0.01 // every heartbeat screams overload
	cfg.Node.MonitorInterval = time.Millisecond
	cfg.Master.CloneInterval = time.Millisecond
	cfg.Master.StorageBandwidth = math.Inf(1)
	cfg.Master.Policies = []Policy{}
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	app := NewApp("nopol").SourceBag("in").Bag("out")
	app.AddTask(TaskSpec{
		Name:    "work",
		Inputs:  []string{"in"},
		Outputs: []string{"out"},
		Run: func(tc *TaskCtx) error {
			w := NewWriter(tc, 0, Int64Of)
			return ForEach(tc, 0, Int64Of, func(v int64) error {
				for i := 0; i < 100; i++ {
					if tc.Context().Err() != nil {
						return tc.Context().Err()
					}
				}
				return w.Write(v)
			})
		},
	})
	vals := make([]int64, 20000)
	for i := range vals {
		vals[i] = int64(i)
	}
	store := cluster.Store()
	if err := Load(ctx, store, "in", Int64Of, vals); err != nil {
		t.Fatal(err)
	}
	if err := Seal(ctx, store, "in"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(ctx, app); err != nil {
		t.Fatal(err)
	}
	if st := cluster.Master().Stats(); st.Clones != 0 || st.CloneRejects != 0 {
		t.Fatalf("mitigation ran with an empty policy set: %+v", st)
	}
}
