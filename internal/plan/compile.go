package plan

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"repro/internal/bag"
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
	// by the skewed join / warm-started groupby (default 0.5 — the same
	// threshold shape the runtime IsolateKeyPolicy applies).
	IsolateFraction float64
	// Fan is the record-level spread fan for pre-isolated heavy keys
	// (default 4).
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
		o.IsolateFraction = 0.5
	}
	if o.Fan <= 0 {
		// 0 means default; an explicit Fan of 1 is honored — it isolates
		// heavy keys onto one dedicated partition without record-level
		// spreading (shuffle.WarmStart supports fan=1 directly).
		o.Fan = 4
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
// via the Run/Submit helpers, which also publish the seeds), RunStream
// (App as the per-window DAG), and hurricane-run over TCP storage.
type Physical struct {
	Plan   *Plan
	App    *core.App
	Opts   Options
	Stages []StageInfo
	Joins  []JoinInfo
	// Seeds are warm-start partition maps derived from compile-time
	// statistics, keyed by (unprefixed) edge bag name. Publish them with
	// Seed before the job's producers start.
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
	name      string
	head      string // scan | edge | finalize | topk
	consume   string // consumed bag
	inCodec   AnyCodec
	inNode    *Node // node whose records enter the stage
	finalize  bool  // drain + merge groupby partials before streaming
	scans     []scanSide
	ops       []*Node // operator chain applied to entering records
	out       string  // output bag
	outCodec  AnyCodec
	edgeKeyFn func(any) uint64 // non-nil when the tail writes a shuffle edge
	inEdge    bool             // consume is a partitioned edge
	noClone   bool
}

type scanSide struct {
	bagName string
	node    *Node            // build-side node (codec + finalize info)
	joinKey func(any) uint64 // the consuming join's BuildKey
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
	s.consume, s.inCodec, s.inNode = c.materialized(n), n.codec, n
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
		if s := c.stageOf[n]; s != nil && s.out == "" && s.edgeKeyFn == nil {
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
			s.head, s.consume, s.inCodec, s.inNode = "scan", n.bag, n.codec, n

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
			up.out, up.outCodec = edge, n.in[0].codec
			up.edgeKeyFn = n.gb.Key
			c.seedEdge(edge, n.in[0], spread)
			// Consumer side: the aggregate stage (one worker per physical
			// partition; clones allowed — partials merge downstream).
			s := c.newStage(n)
			s.head, s.consume, s.inCodec, s.inNode = "edge", edge, n.in[0].codec, n.in[0]
			s.inEdge = true
			s.noClone = c.opts.Static
			s.ops = append(s.ops, n)

		case opJoin:
			info := strategies[n]
			build, probe := n.in[0], n.in[1]
			bs := scanSide{bagName: c.materialized(build), node: build, joinKey: n.join.BuildKey}
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
			up.out, up.outCodec = info.Edge, probe.codec
			up.edgeKeyFn = n.join.ProbeKey
			if info.Strategy == JoinSkewed {
				c.seedEdge(info.Edge, probe, spread)
			}
			s := c.newStage(n)
			s.head, s.consume, s.inCodec, s.inNode = "edge", info.Edge, probe.codec, probe
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
		last := s.inNode
		if len(s.ops) > 0 {
			last = s.ops[len(s.ops)-1]
		}
		if name, ok := c.sinkFor(last); ok {
			c.ph.sinks[name] = name
			s.out, s.outCodec = name, last.codec
		} else {
			s.out, s.outCodec = c.materialized(last), last.codec
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
			ConsumesEdge: s.inEdge, WritesEdge: s.edgeKeyFn != nil, NoClone: s.noClone,
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

// maxVector bounds the buffer of an operator that emits several records
// per input record: past it the operator hands on what it has before it
// takes more input, so a probe vector of a heavy many-to-many join key
// never materializes all its matches at once.
const maxVector = 1 << 14

// kernel is one operator lowered to executable form, over record vectors.
type kernel struct {
	// run takes an input vector and returns the operator's output for its
	// first used records. The output is the input itself, compacted or
	// rewritten in place, or a buffer the kernel owns; either is valid
	// until the kernel's next call. Only an operator emitting several
	// records per input record stops short of len(in) (maxVector).
	run func(in []any) (out []any, used int, err error)
	// finish, when set, returns what the operator held back — aggregates,
	// the top k — once its input is exhausted.
	finish func() []any
}

// lowerOps compiles a stage's operator chain, once per worker run: the
// per-worker factories run here and operator state lives in the kernels,
// so clones get their own. Join ops resolve their build table through
// builds (hash-loaded at task start).
func lowerOps(ops []*Node, builds map[*Node]map[uint64][]any) []kernel {
	out := make([]kernel, 0, len(ops))
	for _, n := range ops {
		switch n.kind {
		case opFilter:
			pred := n.filterF()
			out = append(out, kernel{run: func(in []any) ([]any, int, error) {
				kept := in[:0]
				for _, v := range in {
					if pred(v) {
						kept = append(kept, v)
					}
				}
				return kept, len(in), nil
			}})
		case opMap:
			fn := n.mapF()
			out = append(out, kernel{run: func(in []any) ([]any, int, error) {
				for i, v := range in {
					m, err := fn(v)
					if err != nil {
						return nil, 0, err
					}
					in[i] = m
				}
				return in, len(in), nil
			}})
		case opFlatMap:
			out = append(out, expand(n.flatF()))
		case opJoin:
			j, table := n.join, builds[n]
			out = append(out, expand(func(v any, emit func(any) error) error {
				for _, b := range table[j.ProbeKey(v)] {
					if err := j.Join(b, v, emit); err != nil {
						return err
					}
				}
				return nil
			}))
		case opGroupBy:
			g := n.gb
			groups := make(map[uint64]any)
			out = append(out, kernel{
				run: func(in []any) ([]any, int, error) {
					for _, v := range in {
						k := g.Key(v)
						acc, ok := groups[k]
						if !ok {
							acc = g.Init()
						}
						groups[k] = g.Add(acc, v)
					}
					return nil, len(in), nil
				},
				finish: func() []any { return partialsOf(g, groups) },
			})
		case opTopK:
			k, less := n.k, n.less
			var top []any
			out = append(out, kernel{
				run: func(in []any) ([]any, int, error) {
					for _, v := range in {
						// Insertion into a k-bounded, descending-sorted slice:
						// k is small, the input is already aggregated.
						i := sort.Search(len(top), func(i int) bool { return less(top[i], v) })
						if i >= k {
							continue
						}
						top = append(top, nil)
						copy(top[i+1:], top[i:])
						top[i] = v
						if len(top) > k {
							top = top[:k]
						}
					}
					return nil, len(in), nil
				},
				finish: func() []any { return top },
			})
		}
	}
	return out
}

// expand lowers an operator that emits any number of records per input
// record — each emits those of one — into a buffer the kernel owns.
func expand(each func(v any, emit func(any) error) error) kernel {
	var buf []any
	emit := func(v any) error {
		buf = append(buf, v)
		return nil
	}
	return kernel{run: func(in []any) ([]any, int, error) {
		buf = buf[:0]
		for i, v := range in {
			if err := each(v, emit); err != nil {
				return nil, 0, err
			}
			if len(buf) >= maxVector {
				return buf, i + 1, nil
			}
		}
		return buf, len(in), nil
	}}
}

// partialsOf boxes one accumulator per key into partial records, in key
// order.
func partialsOf(g *GroupBySpec, accs map[uint64]any) []any {
	keys := make([]uint64, 0, len(accs))
	for k := range accs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	vec := make([]any, len(keys))
	for i, k := range keys {
		vec[i] = g.MakePartial(k, accs[k])
	}
	return vec
}

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

// runStage executes one compiled stage inside a worker. All per-run
// state (decoder, aggregation maps, top-k buffers, build tables) is
// created here, so any number of workers run the same stage concurrently.
// Every stage is the same loop, all of it per vector: decode a chunk into
// a record vector, run it through the kernels in order, write what comes
// out to the sink. A finalize stage differs only in what the vector is —
// the merged partials instead of a chunk.
func runStage(tc *core.TaskCtx, s *stage) error {
	builds := make(map[*Node]map[uint64][]any, len(s.scans))
	for i, b := range s.scans {
		m, err := loadBuild(tc, i, b)
		if err != nil {
			return err
		}
		for _, op := range s.ops {
			if op.kind == opJoin && op.in[0] == b.node {
				builds[op] = m
			}
		}
	}
	sink, err := openSink(tc, s)
	if err != nil {
		return err
	}
	kernels := lowerOps(s.ops, builds)
	// push runs vec through kernels[from:] and into the sink.
	var push func(from int, vec []any) error
	push = func(from int, vec []any) error {
		for i := from; i < len(kernels) && len(vec) > 0; {
			out, used, err := kernels[i].run(vec)
			if err != nil {
				return err
			}
			if used == len(vec) {
				vec, i = out, i+1
				continue
			}
			// The kernel's buffer filled part-way through vec: send that
			// on, then give it the rest.
			if err := push(i+1, out); err != nil {
				return err
			}
			vec = vec[used:]
		}
		if len(vec) == 0 {
			return nil
		}
		return sink(vec)
	}
	run := func(vec []any) error { return push(0, vec) }
	consume := func() (chunk.Chunk, error) { return tc.Remove(0) }
	if s.finalize {
		// Drain the partial bag completely, merge by key, and run the
		// finalized records through in key order. The stage is NoClone, so
		// this worker sees every partial.
		g := s.inNode.gb
		merged := make(map[uint64]any)
		if err := forEachVec(consume, s.inCodec, mergePartials(g, merged)); err != nil {
			return err
		}
		if err := run(partialsOf(g, merged)); err != nil {
			return err
		}
	} else if err := forEachVec(consume, s.inCodec, run); err != nil {
		return err
	}
	// Finishing kernel i flushes its state through kernels i+1.. into the
	// sink.
	for i, k := range kernels {
		if k.finish == nil {
			continue
		}
		if err := push(i+1, k.finish()); err != nil {
			return err
		}
	}
	return nil
}

// openSink builds the stage's tail write function, which takes a vector
// at a time. Either kind of output is written through encoders this worker
// asks the output codec for — one for a plain bag, one per leaf for a
// shuffle edge, where the scatter routes each record by its key word — so
// the chunks take the codec's layout, and a record is encoded when
// written, never kept.
func openSink(tc *core.TaskCtx, s *stage) (func([]any) error, error) {
	size := tc.Store().ChunkSize()
	if s.edgeKeyFn == nil {
		enc := s.outCodec.NewEncoderAny(size, func(c chunk.Chunk, _ int) error { return tc.Insert(0, c) })
		tc.OnFinish(enc.Close)
		return func(vec []any) error { return enc.AppendRows(vec, nil) }, nil
	}
	w := tc.ShuffleWriter(0, nil)
	if w == nil {
		return nil, fmt.Errorf("plan: stage %s output %q is not partitioned", s.name, tc.OutputName(0))
	}
	sc := shuffle.NewScatterOf(w, func(emit func(chunk.Chunk, int) error) shuffle.LeafEncoder[any] {
		return s.outCodec.NewEncoderAny(size, emit)
	}, nil)
	sc.KeyUint64(s.edgeKeyFn)
	tc.OnFinish(sc.Close)
	return sc.WriteBatch, nil
}

// KeyBytes returns the canonical routing-key byte encoding of a uint64
// plan key (little-endian, matching the compiled shuffle writers). Warm
// statistics fed to the planner must use the same encoding.
func KeyBytes(k uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], k)
	return b[:]
}

// forEachVec decodes every chunk next yields, until bag.ErrEmpty, through
// a decoder of its own and hands fn the records. The vector is reused
// between calls.
func forEachVec(next func() (chunk.Chunk, error), codec AnyCodec, fn func(vec []any) error) error {
	decode := codec.NewDecoderAny()
	var vec []any
	for {
		c, err := next()
		if err == bag.ErrEmpty {
			return nil
		}
		if err != nil {
			return err
		}
		if vec, err = decode(c, vec[:0]); err != nil {
			return err
		}
		if err := fn(vec); err != nil {
			return err
		}
	}
}

// mergePartials returns a vector body folding GroupBy partials into
// merged, one accumulator per key.
func mergePartials(g *GroupBySpec, merged map[uint64]any) func([]any) error {
	return func(vec []any) error {
		for _, v := range vec {
			k, acc := g.SplitPartial(v)
			if prev, ok := merged[k]; ok {
				merged[k] = g.Merge(prev, acc)
			} else {
				merged[k] = acc
			}
		}
		return nil
	}
}

// loadBuild hash-loads a join build side: join key -> build records. A
// GroupBy build side is finalized while loading (partials of one key
// merge into a single accumulator before keying).
func loadBuild(tc *core.TaskCtx, scanInput int, b scanSide) (map[uint64][]any, error) {
	scan := func() (chunk.Chunk, error) { return tc.Scan(scanInput) }
	out := make(map[uint64][]any)
	if b.node.kind == opGroupBy {
		g := b.node.gb
		merged := make(map[uint64]any)
		if err := forEachVec(scan, b.node.codec, mergePartials(g, merged)); err != nil {
			return nil, err
		}
		for k, acc := range merged {
			rec := g.MakePartial(k, acc)
			out[b.joinKey(rec)] = append(out[b.joinKey(rec)], rec)
		}
		return out, nil
	}
	err := forEachVec(scan, b.node.codec, func(vec []any) error {
		for _, v := range vec {
			k := b.joinKey(v)
			out[k] = append(out[k], v)
		}
		return nil
	})
	return out, err
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
		fmt.Fprintf(&b, "  seed %s: %d splits, %d isolated keys\n",
			edge, len(seed.Splits), len(seed.Isolated))
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
