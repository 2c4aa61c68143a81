package plan

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shuffle"
	"repro/internal/sketch"
)

// Stats carries compile-time statistics the planner consults for
// physical decisions. All fields are optional; missing information
// degrades the plan gracefully (no broadcast, no pre-seeding) and the
// runtime control plane still adapts from live sketches.
type Stats struct {
	// Records maps bag name -> record count. Source-bag sizes drive the
	// broadcast-join decision.
	Records map[string]int64
	// Edges maps an edge name (a previous run of the same plan — see
	// StatsFromMemory) or a probe/groupby chain's head source-bag name to
	// the key-frequency statistics of the records that will cross that
	// edge. Heavy-hitter candidates here are what turns a repartition
	// join into a skewed join at compile time.
	Edges map[string]*sketch.EdgeStats
	// PMaps maps edge name -> a previous run's final partition map; its
	// isolated keys are transplanted into the seed map.
	PMaps map[string]*shuffle.PartitionMap
}

// NewStats returns empty statistics ready to be filled.
func NewStats() *Stats {
	return &Stats{
		Records: make(map[string]int64),
		Edges:   make(map[string]*sketch.EdgeStats),
		PMaps:   make(map[string]*shuffle.PartitionMap),
	}
}

// StatsFromMemory converts a finished job's skew memory
// (Master.EdgeMemory) into compile statistics for a repeated run of the
// same plan: edge names are stable across recompilations, so the
// previous run's final partition maps and merged sketches key directly.
// prefix is the finished job's bag namespace ("" for raw jobs).
func StatsFromMemory(mem map[string]core.EdgeMemory, prefix string) *Stats {
	s := NewStats()
	for name, em := range mem {
		n := name
		if prefix != "" {
			n = strings.TrimPrefix(name, prefix+"/")
		}
		if em.Stats != nil {
			s.Edges[n] = em.Stats
		}
		if em.PMap != nil {
			pm := em.PMap.Clone()
			pm.Bag = n
			s.PMaps[n] = pm
		}
	}
	return s
}

// knownRecords reports the record count of a node's materialized bag,
// when the caller supplied it.
func (c *compiler) knownRecords(n *Node) (int64, bool) {
	if c.opts.Stats == nil || c.opts.Stats.Records == nil {
		return 0, false
	}
	sz, ok := c.opts.Stats.Records[c.materialized(n)]
	return sz, ok
}

// headBag walks a narrow chain up to its head and returns the bag its
// records originate from — the secondary lookup key for warm edge
// statistics (the primary is the generated edge name itself).
func (c *compiler) headBag(n *Node) string {
	for n.kind == opFilter || n.kind == opMap || n.kind == opFlatMap {
		n = n.in[0]
	}
	return c.materialized(n)
}

// warmEdgeStats finds compile-time key statistics for an edge fed by
// node in: first under the edge's own (recompilation-stable) name, then
// under the feeding chain's head bag name.
func (c *compiler) warmEdgeStats(edge string, in *Node) *sketch.EdgeStats {
	if c.opts.Stats == nil || c.opts.Stats.Edges == nil {
		return nil
	}
	if st := c.opts.Stats.Edges[edge]; st != nil {
		return st
	}
	return c.opts.Stats.Edges[c.headBag(in)]
}

// decideJoin picks the physical strategy for one join node. The decision
// table (documented in the README):
//
//	build side known ≤ BroadcastMaxRecords        -> broadcast
//	warm statistics show heavy probe keys         -> skewed (pre-isolated)
//	otherwise                                     -> repartition
//
// Static mode always repartitions (the naive baseline), and
// JoinSpec.Strategy pins the choice outright. A repartition join still
// adapts at runtime: its edge is Spread, so clones share a hot partition
// chunk by chunk when the consumers fall behind.
func (c *compiler) decideJoin(n *Node) JoinInfo {
	info := JoinInfo{Node: n.id, Strategy: n.strategy, Edge: c.p.edgeName(n)}
	if info.Strategy != JoinAuto {
		info.Reason = "pinned by JoinSpec.Strategy"
		if info.Strategy == JoinBroadcast {
			info.Edge = ""
		}
		return info
	}
	if c.opts.Static {
		info.Strategy = JoinRepartition
		info.Reason = "static compilation (naive baseline)"
		return info
	}
	build, probe := n.in[0], n.in[1]
	if sz, ok := c.knownRecords(build); ok && sz <= c.opts.BroadcastMaxRecords {
		info.Strategy, info.Edge = JoinBroadcast, ""
		info.Reason = fmt.Sprintf("build side %q holds %d records (≤ broadcast threshold %d)",
			c.materialized(build), sz, c.opts.BroadcastMaxRecords)
		return info
	}
	if st := c.warmEdgeStats(info.Edge, probe); st != nil && st.Total() > 0 {
		heavy := st.TopKeys(sketch.MaxHeavyKeys, c.opts.IsolateFraction/float64(c.opts.Parts))
		if len(heavy) > 0 {
			info.Strategy = JoinSkewed
			info.Reason = fmt.Sprintf(
				"warm sketch shows %d heavy keys (top key ≈ %d%% of %d observed records); pre-isolating with fan %d",
				len(heavy), int(100*float64(heavy[0].Count)/float64(st.Total())), st.Total(), c.opts.Fan)
			return info
		}
	}
	info.Strategy = JoinRepartition
	info.Reason = "build size unknown or large, no heavy keys in warm statistics (runtime policies still adapt the edge)"
	return info
}

// seedEdge derives a warm-start seed partition map for an edge from the
// compile-time statistics, pre-isolating the heavy keys a previous run
// (or a supplied sketch) already learned.
func (c *compiler) seedEdge(edge string, in *Node, spread bool) {
	if c.opts.Static || c.opts.Stats == nil {
		return
	}
	st := c.warmEdgeStats(edge, in)
	var prev *shuffle.PartitionMap
	if c.opts.Stats.PMaps != nil {
		prev = c.opts.Stats.PMaps[edge]
	}
	seed := shuffle.WarmStart(prev, st, edge, c.opts.Parts, c.opts.IsolateFraction, c.opts.Fan, spread)
	if seed != nil {
		c.ph.Seeds[edge] = seed
	}
}

// ---- execution helpers ----

// Run executes the compiled plan the way Cluster.Run executes an app —
// flat bag names, work bags retained — and waits for it: a Submit and a
// Wait. Source bags must be loaded and sealed.
func (ph *Physical) Run(ctx context.Context, c *core.Cluster) error {
	h, err := ph.Submit(ctx, c, core.JobConfig{Raw: true, Retain: true})
	if err != nil {
		return err
	}
	return h.Wait(ctx)
}

// traceDecisions records the compiled join strategies (with the stats
// that justified each) in the cluster's observer, so a live /debug/trace
// shows why the planner chose broadcast/skewed/repartition alongside the
// runtime clones that followed. Compile itself has no cluster;
// Run/Submit are where a plan meets one.
func (ph *Physical) traceDecisions(o *obs.Observer, job string) {
	for _, j := range ph.Joins {
		subject := j.Edge
		if subject == "" {
			subject = fmt.Sprintf("node-%d", j.Node)
		}
		o.Emit(obs.EvJoinStrategyChosen, job, subject,
			fmt.Sprintf("node=%d strategy=%s reason: %s", j.Node, j.Strategy, j.Reason))
		o.Counter("hurricane_plan_join_strategy_total", "strategy", j.Strategy.String()).Inc()
	}
	if len(ph.Seeds) > 0 {
		o.Counter("hurricane_plan_seeded_edges_total").Add(uint64(len(ph.Seeds)))
	}
}

// Submit submits the compiled plan to the multi-job scheduler with its
// seed maps in the submission: SubmitJob fixes each on its edge under the
// namespace it grants, so producers can never observe an unseeded edge,
// and a seed that does not match its edge fails the submission. Load
// source bags under the names the returned handle's Bag method reports.
func (ph *Physical) Submit(ctx context.Context, c *core.Cluster, cfg core.JobConfig) (*core.JobHandle, error) {
	if cfg.Seeds == nil && len(ph.Seeds) > 0 {
		cfg.Seeds = ph.Seeds
	}
	name := cfg.Name
	if name == "" {
		name = ph.App.Name()
	}
	ph.traceDecisions(c.Observer(), name)
	return c.SubmitJob(ctx, ph.App, cfg)
}
