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
// degrades the plan gracefully (no pre-seeding) and the runtime control
// plane still adapts from live sketches.
type Stats struct {
	// Edges maps an edge name (a previous run of the same plan — see
	// StatsFromMemory) or a groupby chain's head source-bag name to the
	// key-frequency statistics of the records that will cross that edge.
	// Heavy-hitter candidates here are pre-isolated in the seed map of a
	// groupby edge; a join edge is never seeded.
	Edges map[string]*sketch.EdgeStats
	// PMaps maps edge name -> a previous run's final partition map; its
	// isolated keys are transplanted into the seed map.
	PMaps map[string]*shuffle.PartitionMap
}

// NewStats returns empty statistics ready to be filled.
func NewStats() *Stats {
	return &Stats{
		Edges: make(map[string]*sketch.EdgeStats),
		PMaps: make(map[string]*shuffle.PartitionMap),
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

// decideJoin picks the physical form of one join node from the plan alone.
// The decision table (documented in the README):
//
//	Options.Static                                -> repartition (the naive baseline)
//	probe streams out of a GroupBy finalize       -> repartition
//	otherwise                                     -> broadcast
//
// Every form loads the whole build side into every join worker, so a
// probe shuffle buys no memory and no skew defence: the join fuses into
// the stage producing the probe side, and clones split the probe chunk by
// chunk whatever its keys. A GroupBy's finalize stage cannot clone, so
// behind one the probe edge is what lets several workers run the join. A
// TopK stage cannot clone either, but it emits at most k records, so a
// join fuses into it.
func (c *compiler) decideJoin(n *Node) JoinInfo {
	info := JoinInfo{Node: n.id, Edge: c.p.edgeName(n)}
	switch {
	case c.opts.Static:
		info.Strategy = JoinRepartition
		info.Reason = "static compilation (naive baseline)"
	case finalized(n.in[1]):
		info.Strategy = JoinRepartition
		info.Reason = "the probe streams out of a GroupBy's single-worker finalize stage, so only an edge lets the join run on several workers"
	default:
		info.Strategy = JoinBroadcast
		info.Reason = "every worker scans the build side whatever the form, so the probe needs no shuffle (clones split it chunk by chunk)"
	}
	if info.Strategy == JoinBroadcast {
		info.Edge = ""
	}
	return info
}

// finalized reports whether node n's records stream out of a GroupBy's
// finalize stage, reached through narrow operators.
func finalized(n *Node) bool {
	for {
		switch n.kind {
		case opGroupBy:
			return true
		case opFilter, opMap, opFlatMap:
			n = n.in[0]
		default:
			// A scan, a TopK, or a join: a join behind a finalize
			// repartitions and opens its own clonable edge stage, and a
			// join not behind one has a probe that is not finalized.
			return false
		}
	}
}

// seedEdge derives a warm-start seed partition map for a groupby edge from
// the compile-time statistics, pre-isolating the heavy keys a previous run
// (or a supplied sketch) already learned. Only a Static plan's edges are
// not Spread, and a Static plan is never seeded.
func (c *compiler) seedEdge(edge string, in *Node) {
	if c.opts.Static || c.opts.Stats == nil {
		return
	}
	st := c.warmEdgeStats(edge, in)
	var prev *shuffle.PartitionMap
	if c.opts.Stats.PMaps != nil {
		prev = c.opts.Stats.PMaps[edge]
	}
	seed := shuffle.WarmStart(prev, st, edge, c.opts.Parts, true)
	if seed != nil {
		c.ph.Seeds[edge] = seed
	}
}

// ---- execution helpers ----

// Run executes the compiled plan the way Cluster.Run executes an app —
// flat bag names, work bags retained — and waits for it: a Submit and a
// Wait. Source bags must be loaded and sealed.
func (ph *Physical) Run(ctx context.Context, c *core.Cluster) error {
	h, err := ph.Submit(ctx, c, core.JobConfig{Raw: true})
	if err != nil {
		return err
	}
	return h.Wait(ctx)
}

// traceDecisions records the compiled join forms (with the reason for
// each) in the cluster's observer, so a live /debug/trace shows why the
// planner chose broadcast or repartition alongside the runtime clones that
// followed. Compile itself has no cluster; Run/Submit are where a plan
// meets one.
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
