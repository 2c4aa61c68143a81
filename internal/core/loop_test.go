package core

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bag"
	"repro/internal/ctrl"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/transport"
)

// countedCalls is a transport client that counts the requests matching
// match on their way through.
type countedCalls struct {
	transport.Client
	match func(*transport.Request) bool
	n     atomic.Int64
}

func (c *countedCalls) Call(ctx context.Context, node string, req *transport.Request) (*transport.Response, error) {
	if c.match(req) {
		c.n.Add(1)
	}
	return c.Client.Call(ctx, node, req)
}

// storeBehind is a store on one in-process storage node, "s0", reached
// through the client wrap makes of the transport.
func storeBehind(t *testing.T, wrap func(transport.Client) transport.Client) *bag.Store {
	t.Helper()
	tr := transport.NewInProc()
	tr.Register("s0", storage.NewNode("s0"))
	store, err := bag.NewStore(bag.Config{Nodes: []string{"s0"}, Client: wrap(tr), ChunkSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestIdleMasterMakesNoCalls: with every worker of the job running and the
// nodes' heartbeats and overload signals flowing at 1 ms, nothing names a
// record bag, so the master reads none — except on its fallback rescan —
// and evaluates its policies once per policy interval, not once per signal.
func TestIdleMasterMakesNoCalls(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// The readAt calls are the master's record-bag scans.
	reads := &countedCalls{match: func(req *transport.Request) bool { return req.Op == transport.OpReadAt }}
	store := storeBehind(t, func(tr transport.Client) transport.Client { reads.Client = tr; return reads })
	cfg := testClusterConfig()
	cfg.ComputeNodes, cfg.SlotsPerNode = 2, 1
	cfg.Node = NodeConfig{MonitorInterval: time.Millisecond, HeartbeatInterval: time.Millisecond}
	cfg.Master.CloneInterval = 2 * time.Millisecond
	c := NewClusterOverStore(store, cfg)
	defer c.Shutdown()
	sealedEmpty(t, ctx, c, "in0", "in1")

	var started atomic.Int64
	gate := make(chan struct{})
	h, err := c.SubmitJob(ctx, gatesApp("idle", &started, gate, gate), JobConfig{Raw: true, Retain: true})
	if err != nil {
		t.Fatal(err)
	}
	m := h.Master()
	waitFor(t, ctx, "both workers known to the master", func() bool {
		return len(m.RunningOn("t0")) == 1 && len(m.RunningOn("t1")) == 1
	})
	counter := func(name string, labels ...string) uint64 {
		return c.Observer().Counter(name, append([]string{"job", "idle"}, labels...)...).Value()
	}
	scans := func() uint64 {
		return counter("hurricane_core_record_scans_total", "bag", "ready") +
			counter("hurricane_core_record_scans_total", "bag", "running") +
			counter("hurricane_core_record_scans_total", "bag", "done")
	}

	policy, fallback := m.policyInterval(), m.fallbackInterval()
	if policy != time.Millisecond || fallback != 50*time.Millisecond {
		t.Fatalf("policy interval %v, fallback %v; want 1ms (half the clone interval) and 50ms", policy, fallback)
	}
	begin := time.Now()
	reads0, scans0 := reads.n.Load(), scans()
	snaps0, overloads0 := counter("hurricane_ctrl_snapshots_total"), counter("hurricane_ctrl_overloads_total")
	time.Sleep(20 * cfg.Master.CloneInterval)
	read, scanned := reads.n.Load()-reads0, scans()-scans0
	snaps, overloads := counter("hurricane_ctrl_snapshots_total")-snaps0, counter("hurricane_ctrl_overloads_total")-overloads0
	elapsed := time.Since(begin)

	if overloads == 0 {
		t.Fatal("no overload signal arrived: the master was not being signalled")
	}
	// Only a fallback rescan may read: three bags, one readAt per slot each.
	rescans := int64(elapsed/fallback) + 1
	if maxReads := rescans * 3 * int64(store.NumSlots()); read > maxReads || int64(scanned) > rescans*3 {
		t.Errorf("%d readAts in %d scans over %v of idling, want at most %d (the fallback's)", read, scanned, elapsed, maxReads)
	}
	if maxSnaps := uint64(elapsed/policy) + 2; snaps > maxSnaps {
		t.Errorf("%d control passes in %v under %d overload signals, want at most %d (one per %v)", snaps, elapsed, overloads, maxSnaps, policy)
	}
	close(gate)
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// lostNudges is a master none of whose nudges arrive.
type lostNudges struct {
	masterAPI
	lost atomic.Int64
}

func (l *lostNudges) nudge(ctrl.Cause) { l.lost.Add(1) }

// TestLostNudgeCostsOneFallback: a nudge is advisory. With the task's
// completion record in the done bag and the nudge that names it lost, the
// fallback rescan finds the record and the job completes.
func TestLostNudgeCostsOneFallback(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := dispatchCluster(t, 1, nil)
	sealedEmpty(t, ctx, c, "in0")
	var started atomic.Int64
	gate := make(chan struct{})
	h, err := c.SubmitJob(ctx, gatesApp("deaf", &started, gate), JobConfig{Raw: true, Retain: true})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, ctx, "the task", func() bool { return started.Load() == 1 })
	deaf := &lostNudges{masterAPI: h.Master()}
	c.mu.Lock()
	for _, n := range c.computes {
		n.setMaster(h.ID(), deaf)
	}
	c.mu.Unlock()

	begin := time.Now()
	close(gate)
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if deaf.lost.Load() == 0 {
		t.Fatal("the completion was not nudged through the decorator")
	}
	if took, limit := time.Since(begin), 2*h.Master().fallbackInterval(); took > limit {
		t.Errorf("job completed %v after its last task, want within two fallback periods (%v)", took, limit)
	}
}

// TestCloneWithinPolicyInterval: overload signals no longer wake the
// master, so a clone waits for a timed control pass — one comes within a
// policy interval of the task's rate limit (one clone per CloneInterval)
// letting the next clone through.
func TestCloneWithinPolicyInterval(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cfg := testClusterConfig()
	cfg.Node = NodeConfig{MonitorInterval: 2 * time.Millisecond, HeartbeatInterval: 2 * time.Millisecond}
	cfg.Master.CloneInterval = 20 * time.Millisecond
	cfg.Master.StorageBandwidth = math.Inf(1)
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()
	const n = 40000
	var processed atomic.Int64
	app := slowSumApp(&processed, 20_000) // 0.8 s of work for one worker
	loadInts(t, ctx, cluster.Store(), "in", n)
	if err := cluster.Start(ctx, app); err != nil {
		t.Fatal(err)
	}
	m := cluster.Master()
	var at []int64 // when each clone of the copy stage was applied
	waitFor(t, ctx, "four clones", func() bool {
		at = at[:0]
		for _, e := range cluster.Trace() {
			if e.Type == obs.EvTaskCloned && e.Subject == "copy" {
				at = append(at, e.TMicros)
			}
		}
		return len(at) >= 4
	})
	// The scheduler can make any one pass late; the quickest of the gaps
	// shows what the timer allows.
	quickest := time.Hour
	for i := 1; i < len(at); i++ {
		quickest = min(quickest, time.Duration(at[i]-at[i-1])*time.Microsecond)
	}
	if limit := cfg.Master.CloneInterval + m.policyInterval(); quickest > limit {
		t.Errorf("quickest clone-to-clone gap %v, want within CloneInterval + one policy interval (%v)", quickest, limit)
	}
	if err := cluster.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := readSum(t, ctx, cluster.Store()), int64(n)*(n-1)/2; got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}
