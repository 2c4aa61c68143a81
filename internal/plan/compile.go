package plan

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/shuffle"
)

// Options tunes logical→physical compilation.
type Options struct {
	// Parts is the base partition count of inserted shuffle edges
	// (default 4).
	Parts int
	// BroadcastMaxRecords: a join whose build side is known to hold at
	// most this many records compiles to a broadcast join (default 8192).
	// Unknown build sizes never broadcast — memory-loading a relation of
	// unknown size in every worker is the one irreversible mistake here.
	BroadcastMaxRecords int64
	// IsolateFraction: a key whose observed share of an edge's records is
	// at least IsolateFraction of a mean partition's load is pre-isolated
	// by the skewed join / warm-started groupby (default
	// shuffle.DefaultIsolateFraction).
	IsolateFraction float64
	// Fan is the record-level spread fan for pre-isolated heavy keys
	// (default shuffle.DefaultFan).
	Fan int
	// Static compiles the naive physical plan: no record-level Spread and
	// no seed maps, with NoClone edge consumers — classic static hash
	// partitioning with one reducer per partition. This is the baseline
	// the adaptive plans are benchmarked against.
	Static bool
	// Stats supplies compile-time statistics (nil = none: joins
	// repartition unless pinned or known-small, and no edges are
	// pre-seeded).
	Stats *Stats
}

func (o Options) withDefaults() Options {
	if o.Parts <= 0 {
		o.Parts = 4
	}
	if o.BroadcastMaxRecords <= 0 {
		o.BroadcastMaxRecords = 8192
	}
	if o.IsolateFraction <= 0 {
		o.IsolateFraction = shuffle.DefaultIsolateFraction
	}
	if o.Fan <= 0 {
		// 0 means default; an explicit Fan of 1 is honored — it isolates
		// heavy keys onto one dedicated partition without record-level
		// spreading (shuffle.WarmStart supports fan=1 directly).
		o.Fan = shuffle.DefaultFan
	}
	return o
}

// StageInfo describes one compiled task for explain output and tests.
type StageInfo struct {
	Task         string   // task name in the compiled application
	Head         string   // how records enter: scan | edge | finalize | topk
	Ops          []string // fused operator chain, in order
	Consumes     string   // consumed input bag (logical edge name for edges)
	Scans        []string // scanned bags (join build sides)
	Output       string   // output bag
	ConsumesEdge bool     // Consumes is a partitioned shuffle edge
	WritesEdge   bool     // Output is a partitioned shuffle edge
	NoClone      bool
}

// JoinInfo records the planner's physical choice for one join node.
type JoinInfo struct {
	Node     int
	Strategy JoinStrategy
	Edge     string // probe shuffle edge ("" for broadcast)
	Reason   string
}

// Physical is a compiled plan: the executable application graph plus the
// planner's decisions and seed partition maps. The same Physical runs on
// every execution surface — Cluster.Run / Cluster.SubmitJob (directly or
// via the Run/Submit helpers, which also submit the seeds), RunStream
// (App as the per-window DAG), and hurricane-run over TCP storage.
type Physical struct {
	Plan   *Plan
	App    *core.App
	Opts   Options
	Stages []StageInfo
	Joins  []JoinInfo
	// Seeds are warm-start partition maps derived from compile-time
	// statistics, keyed by (unprefixed) edge bag name. Run and Submit put
	// them in the submission (core.JobConfig.Seeds), which fixes each on
	// its edge before any producer starts.
	Seeds map[string]*shuffle.PartitionMap

	sinks map[string]string // sink name -> physical bag name
}

// SinkBag returns the physical bag name of a sink (apply JobHandle.Bag on
// top for namespaced jobs).
func (ph *Physical) SinkBag(sink string) string { return ph.sinks[sink] }

// edgeName names the shuffle edge feeding wide node n — stable across
// recompilations of the same plan shape, which is what lets
// StatsFromMemory warm a repeated query.
func (p *Plan) edgeName(n *Node) string { return fmt.Sprintf("%s.e%d", p.name, n.id) }

// interName names the materialization bag of node n.
func (p *Plan) interName(n *Node) string { return fmt.Sprintf("%s.b%d", p.name, n.id) }

// ---- compilation ----

type compiler struct {
	p    *Plan
	a    *analysis
	opts Options

	app     *core.App
	ph      *Physical
	bags    map[string]bool
	outOf   map[*Node]string
	stages  []*stage
	stageOf map[*Node]*stage
}

// stage is one task under construction.
type stage struct {
	name     string
	head     string // scan | edge | finalize | topk
	consume  string // consumed bag
	inNode   *Node  // node whose records enter the stage
	finalize bool   // drain + merge groupby partials before streaming
	scans    []scanSide
	ops      []*Node // operator chain applied to entering records
	out      string  // output bag
	edgeKey  any     // non-nil when the tail writes a shuffle edge: the consuming wide node's edgeKey
	inEdge   bool    // consume is a partitioned edge
	noClone  bool
}

// last returns the node whose records leave the stage.
func (s *stage) last() *Node {
	if len(s.ops) > 0 {
		return s.ops[len(s.ops)-1]
	}
	return s.inNode
}

// scanSide is one join's build side, read in full by every worker.
type scanSide struct {
	bagName string
	join    *Node // the join it feeds; join.in[0] holds the build records
}

// Compile lowers the logical plan into an executable Physical.
func Compile(p *Plan, opts Options) (*Physical, error) {
	a, err := p.analyze()
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	c := &compiler{
		p: p, a: a, opts: opts,
		app:     core.NewApp(p.name),
		bags:    make(map[string]bool),
		outOf:   make(map[*Node]string),
		stageOf: make(map[*Node]*stage),
	}
	c.ph = &Physical{
		Plan: p, App: c.app, Opts: opts,
		Seeds: make(map[string]*shuffle.PartitionMap),
		sinks: make(map[string]string),
	}
	if err := c.build(); err != nil {
		return nil, err
	}
	if err := c.app.Validate(); err != nil {
		return nil, fmt.Errorf("plan %q: compiled graph invalid: %w", p.name, err)
	}
	return c.ph, nil
}

// sinkFor returns the sink bag a node's records go to, if its consuming
// use is a sink.
func (c *compiler) sinkFor(n *Node) (string, bool) {
	for _, u := range c.a.uses[n] {
		if u.consumer == nil && !u.scan {
			return u.sinkBag, true
		}
	}
	return "", false
}

// consumerOf returns the operator node consuming n's records, if any.
func (c *compiler) consumerOf(n *Node) *Node {
	for _, u := range c.a.uses[n] {
		if u.consumer != nil && !u.scan {
			return u.consumer
		}
	}
	return nil
}

// newStage opens a stage whose in-flight records are node n's.
func (c *compiler) newStage(n *Node) *stage {
	s := &stage{}
	c.stages = append(c.stages, s)
	c.stageOf[n] = s
	return s
}

// readerStage opens a stage that reads node n's materialized records back
// from their bag — the entry point for consumers of multi-use or GroupBy
// (partial) outputs. GroupBy partials are finalized on the way in, which
// forces NoClone (one worker must see every partial of a key).
func (c *compiler) readerStage(n *Node) *stage {
	s := c.newStage(n)
	s.consume, s.inNode = c.materialized(n), n
	if n.kind == opGroupBy {
		s.head, s.finalize, s.noClone = "finalize", true, true
	} else {
		s.head = "scan"
	}
	return s
}

// producerStage returns a stage whose in-flight record stream is node
// n's records, opening a reader stage when they are only available
// materialized (GroupBy partials).
func (c *compiler) producerStage(n *Node) *stage {
	if n.kind != opGroupBy {
		if s := c.stageOf[n]; s != nil && s.out == "" {
			return s
		}
	}
	return c.readerStage(n)
}

// build drives compilation: stage formation, bag declaration, strategy
// decisions, task synthesis.
func (c *compiler) build() error {
	for _, n := range c.p.nodes {
		if n.kind == opScan && !c.bags[n.bag] {
			c.app.SourceBag(n.bag)
			c.bags[n.bag] = true
		}
	}
	// Decide join strategies up front; they shape the stages.
	strategies := make(map[*Node]JoinInfo)
	for _, n := range c.p.nodes {
		if n.kind == opJoin {
			info := c.decideJoin(n)
			strategies[n] = info
			c.ph.Joins = append(c.ph.Joins, info)
		}
	}

	// Walk nodes in topological (creation) order, opening a stage at each
	// head and extending it through fused narrow chains.
	for _, n := range c.p.nodes {
		switch n.kind {
		case opScan:
			// A scan opens a stage only when something streams from it: a
			// build-side-only scan needs no task of its own, and a TopK
			// consumer reads the source bag itself (its single-worker
			// finalize stage IS the reader — a pass-through stage here
			// would have nothing left to write).
			if cons := c.consumerOf(n); cons == nil {
				if _, sunk := c.sinkFor(n); !sunk {
					continue
				}
			} else if cons.kind == opTopK {
				continue
			}
			s := c.newStage(n)
			s.head, s.consume, s.inNode = "scan", n.bag, n

		case opFilter, opMap, opFlatMap:
			// Narrow operators fuse into the stage producing their input.
			s := c.producerStage(n.in[0])
			s.ops = append(s.ops, n)
			c.stageOf[n] = s

		case opGroupBy:
			// Producer side: the upstream stage's tail becomes a
			// partitioned write into the edge, keyed by the group key.
			edge := c.p.edgeName(n)
			up := c.producerStage(n.in[0])
			spread := !c.opts.Static
			c.declareEdge(edge, spread)
			up.out, up.edgeKey = edge, n.edgeKey
			c.seedEdge(edge, n.in[0], spread)
			// Consumer side: the aggregate stage (one worker per physical
			// partition; clones allowed — partials merge downstream).
			s := c.newStage(n)
			s.head, s.consume, s.inNode = "edge", edge, n.in[0]
			s.inEdge = true
			s.noClone = c.opts.Static
			s.ops = append(s.ops, n)

		case opJoin:
			info := strategies[n]
			build, probe := n.in[0], n.in[1]
			bs := scanSide{bagName: c.materialized(build), join: n}
			if info.Strategy == JoinBroadcast {
				// No shuffle: the join fuses into the probe-side stage;
				// clones split the probe chunk-by-chunk and each scans the
				// (small) build side in full.
				s := c.producerStage(probe)
				s.scans = append(s.scans, bs)
				s.ops = append(s.ops, n)
				c.stageOf[n] = s
				continue
			}
			// Shuffled probe: upstream tail writes the edge keyed by the
			// probe key; the join stage consumes it, one worker per
			// physical partition.
			up := c.producerStage(probe)
			spread := !c.opts.Static
			c.declareEdge(info.Edge, spread)
			up.out, up.edgeKey = info.Edge, n.edgeKey
			if info.Strategy == JoinSkewed {
				c.seedEdge(info.Edge, probe, spread)
			}
			s := c.newStage(n)
			s.head, s.consume, s.inNode = "edge", info.Edge, probe
			s.inEdge = true
			s.noClone = c.opts.Static
			s.scans = append(s.scans, bs)
			s.ops = append(s.ops, n)

		case opTopK:
			// Top-k needs a total view: a single-worker stage over the
			// materialized input (finalizing partials when the input is a
			// GroupBy).
			s := c.readerStage(n.in[0])
			s.head, s.noClone = "topk", true
			s.ops = append(s.ops, n)
			c.stageOf[n] = s
		}
	}

	// Assign outputs: every stage without an edge tail either feeds a
	// sink or materializes its terminal node for downstream stages.
	for _, s := range c.stages {
		if s.out != "" {
			continue
		}
		if name, ok := c.sinkFor(s.last()); ok {
			c.ph.sinks[name] = name
			s.out = name
		} else {
			s.out = c.materialized(s.last())
		}
		c.declareBag(s.out)
	}

	// Synthesize tasks.
	for i, s := range c.stages {
		desc := s.head
		if len(s.ops) > 0 {
			desc = s.ops[len(s.ops)-1].Kind()
		}
		s.name = fmt.Sprintf("s%d.%s", i, desc)
		c.emitTask(s)
		info := StageInfo{
			Task: s.name, Head: s.head, Consumes: s.consume, Output: s.out,
			ConsumesEdge: s.inEdge, WritesEdge: s.edgeKey != nil, NoClone: s.noClone,
		}
		for _, b := range s.scans {
			info.Scans = append(info.Scans, b.bagName)
		}
		for _, op := range s.ops {
			info.Ops = append(info.Ops, op.Kind())
		}
		c.ph.Stages = append(c.ph.Stages, info)
	}
	return nil
}

// materialized returns (caching) the bag name holding node n's records
// between stages.
func (c *compiler) materialized(n *Node) string {
	if n.kind == opScan {
		return n.bag
	}
	if name, ok := c.outOf[n]; ok {
		return name
	}
	name, sunk := c.sinkFor(n)
	if !sunk {
		name = c.p.interName(n)
	}
	c.outOf[n] = name
	return name
}

// declareBag declares a plain bag once.
func (c *compiler) declareBag(name string) {
	if !c.bags[name] {
		c.app.Bag(name)
		c.bags[name] = true
	}
}

// declareEdge declares a partitioned shuffle edge.
func (c *compiler) declareEdge(name string, spread bool) {
	if c.bags[name] {
		return
	}
	c.app.AddBag(core.BagSpec{Name: name, Partitions: c.opts.Parts, Spread: spread})
	c.bags[name] = true
}

// ---- task synthesis ----

// emitTask lowers one stage into a core TaskSpec.
func (c *compiler) emitTask(s *stage) {
	spec := core.TaskSpec{
		Name:    s.name,
		Inputs:  []string{s.consume},
		Outputs: []string{s.out},
		NoClone: s.noClone,
	}
	for _, b := range s.scans {
		spec.ScanInputs = append(spec.ScanInputs, b.bagName)
	}
	spec.Run = func(tc *core.TaskCtx) error { return runStage(tc, s) }
	c.app.AddTask(spec)
}

// runStage executes one compiled stage inside a worker. All per-run state
// (decoder, kernels with their buffers and aggregation state, build tables,
// encoders) is created here, so any number of workers run the same stage
// concurrently. Every stage is the same pipeline, all of it per vector:
// decode a chunk into a record vector, hand it through the kernels in order,
// write what comes out to the sink. It is wired back to front — each kernel
// is given its downstream vector function — which is the only place record
// types are erased. A finalize stage differs only in what the vector is: the
// merged partials instead of a chunk.
func runStage(tc *core.TaskCtx, s *stage) error {
	tables := make(map[*Node]any, len(s.scans))
	for i, b := range s.scans {
		t, err := b.join.loadTable(func() (chunk.Chunk, error) { return tc.Scan(i) })
		if err != nil {
			return err
		}
		tables[b.join] = t
	}
	down, err := s.last().rec.sink(tc, s.edgeKey)
	if err != nil {
		return fmt.Errorf("plan: stage %s: %w", s.name, err)
	}
	kernels := make([]kernel, len(s.ops))
	for i := len(s.ops) - 1; i >= 0; i-- {
		kernels[i] = s.ops[i].wire(down, tables[s.ops[i]])
		down = kernels[i].in
	}
	if err := s.inNode.read(func() (chunk.Chunk, error) { return tc.Remove(0) }, s.finalize, down); err != nil {
		return err
	}
	// In operator order, so what kernel i held back still passes through
	// kernels i+1.. before they finish.
	for _, k := range kernels {
		if k.finish == nil {
			continue
		}
		if err := k.finish(); err != nil {
			return err
		}
	}
	return nil
}

// read hands down n's materialized records, a vector per chunk of src — or,
// merged (a GroupBy's partials; the reading stage is NoClone, so this worker
// sees every one), one vector of finalized records in key order.
func (n *Node) read(src chunkSource, merged bool, down any) error {
	if merged {
		return n.readMerged(src, down)
	}
	return n.rec.read(src, down)
}

// KeyBytes returns the canonical routing-key byte encoding of a uint64
// plan key (little-endian, matching the compiled shuffle writers). Warm
// statistics fed to the planner must use the same encoding.
func KeyBytes(k uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], k)
	return b[:]
}

// ---- explain ----

// Explain renders the physical plan: stages with their fused chains,
// shuffle edges, join strategies, and seeds.
func (ph *Physical) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s (parts=%d", ph.Plan.name, ph.Opts.Parts)
	if ph.Opts.Static {
		b.WriteString(", static")
	}
	b.WriteString(")\n")
	for _, s := range ph.Stages {
		fmt.Fprintf(&b, "  %-14s %s(%s)", s.Task, s.Head, s.Consumes)
		for _, op := range s.Ops {
			fmt.Fprintf(&b, " -> %s", op)
		}
		fmt.Fprintf(&b, " => %s", s.Output)
		var marks []string
		if s.ConsumesEdge {
			marks = append(marks, "edge-consumer")
		}
		if s.WritesEdge {
			marks = append(marks, "shuffle-write")
		}
		if len(s.Scans) > 0 {
			marks = append(marks, "scans "+strings.Join(s.Scans, ","))
		}
		if s.NoClone {
			marks = append(marks, "noclone")
		}
		if len(marks) > 0 {
			fmt.Fprintf(&b, "  [%s]", strings.Join(marks, "; "))
		}
		b.WriteByte('\n')
	}
	for _, j := range ph.Joins {
		fmt.Fprintf(&b, "  join@%d: %s — %s\n", j.Node, j.Strategy, j.Reason)
	}
	for _, edge := range sortedSeedNames(ph.Seeds) {
		seed := ph.Seeds[edge]
		fmt.Fprintf(&b, "  seed %s: %d isolated keys\n", edge, len(seed.Isolated))
	}
	return b.String()
}

func sortedSeedNames(m map[string]*shuffle.PartitionMap) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
