// Package plan is Hurricane's query planner: a declarative logical plan —
// Scan / Filter / Map / FlatMap / GroupBy / Join / TopK / Sink — compiled
// into an adaptive DAG job for the core engine.
//
// The planner is the adaptivity layer the paper's machinery was missing a
// front door for: instead of hand-wiring stages and bags per workload,
// applications state *what* they compute and the compiler chooses *how* —
// fusing adjacent narrow operators into single streaming tasks, inserting
// partitioned shuffle edges only at wide boundaries (GroupBy, shuffled
// Join), and picking a physical join strategy per edge from observed
// statistics (in the spirit of SharesSkew's per-key strategy choice and
// Reshape's adaptive layer above the operators):
//
//   - broadcast join when the build side is known-small: the probe side is
//     consumed directly (clones split it chunk-by-chunk) and every worker
//     scans the build side in full — no shuffle at all;
//   - skewed join when compile-time statistics (a warm count-min sketch /
//     EdgeStats from a previous run or window) show heavy-hitter keys: the
//     probe side is shuffled through a partitioned edge whose seed
//     partition map pre-isolates the heavy keys onto replicated fragment
//     consumers (record-level Spread), while the long tail takes the
//     ordinary partitioned path;
//   - plain repartition join otherwise — which still upgrades itself at
//     runtime: the edge's count-min sketch feeds the control plane's
//     SplitPartition/IsolateKey policies, so a skewed join emerges
//     mid-run even when compile-time statistics were absent.
//
// The package is untyped (records travel as `any` plus an AnyCodec); the
// typed, generic public surface is package repro/hurricane/q.
package plan

import (
	"fmt"

	"repro/internal/chunk"
	"repro/internal/shuffle"
)

// AnyCodec is the untyped record codec the planner threads between
// operators. The typed q package adapts chunk.Codec[T] implementations.
// An AnyCodec is shared by every worker of every stage that names it, so
// it holds no decode or encode state itself: each worker asks it for a
// decoder per read stream and an encoder per write stream.
type AnyCodec interface {
	// NewDecoderAny returns a decoder for one worker's read stream: it
	// appends every record of a chunk, row or batch layout, to out. The
	// returned function owns scratch and must not be shared between
	// goroutines.
	NewDecoderAny() func(c chunk.Chunk, out []any) ([]any, error)
	// NewEncoderAny returns an encoder for one of a worker's write streams
	// (its plain output, or one leaf of the shuffle edge it feeds): records
	// appended to it are cut into chunks of size bytes, in whichever layout
	// the wrapped codec has, and handed to emit. It owns a column builder
	// and must not be shared between goroutines.
	NewEncoderAny(size int, emit func(c chunk.Chunk, rows int) error) shuffle.LeafEncoder[any]
}

// opKind enumerates the logical operators.
type opKind int

const (
	opScan opKind = iota
	opFilter
	opMap
	opFlatMap
	opGroupBy
	opJoin
	opTopK
)

func (k opKind) String() string {
	switch k {
	case opScan:
		return "scan"
	case opFilter:
		return "filter"
	case opMap:
		return "map"
	case opFlatMap:
		return "flatmap"
	case opGroupBy:
		return "groupby"
	case opJoin:
		return "join"
	case opTopK:
		return "topk"
	}
	return "?"
}

// GroupBySpec is the untyped description of a keyed aggregation. The
// aggregate must be mergeable (§2.3): Add folds one record into an
// accumulator, Merge reconciles two accumulators of the same key — which
// is what lets the engine spread a heavy key's records across several
// consumers and reconcile downstream.
type GroupBySpec struct {
	// Key extracts the routing key of an input record.
	Key func(any) uint64
	// Init returns a fresh accumulator.
	Init func() any
	// Add folds one record into an accumulator, returning it.
	Add func(acc, rec any) any
	// Merge reconciles two accumulators for the same key.
	Merge func(a, b any) any
	// PartialCodec encodes one (key, accumulator) partial record — the
	// GroupBy node's output record type.
	PartialCodec AnyCodec
	// MakePartial boxes a (key, accumulator) into a partial record.
	MakePartial func(key uint64, acc any) any
	// SplitPartial unboxes a partial record.
	SplitPartial func(partial any) (uint64, any)
}

// JoinStrategy is a physical join implementation.
type JoinStrategy int

const (
	// JoinAuto lets compile-time statistics decide (the default).
	JoinAuto JoinStrategy = iota
	// JoinRepartition shuffles the probe side through a partitioned edge;
	// runtime splitting/isolation still applies.
	JoinRepartition
	// JoinBroadcast consumes the probe side directly (no shuffle); every
	// worker scans the full build side.
	JoinBroadcast
	// JoinSkewed is repartition plus compile-time pre-isolation of
	// heavy-hitter keys onto spread fragment consumers.
	JoinSkewed
)

func (s JoinStrategy) String() string {
	switch s {
	case JoinAuto:
		return "auto"
	case JoinRepartition:
		return "repartition"
	case JoinBroadcast:
		return "broadcast"
	case JoinSkewed:
		return "skewed"
	}
	return "?"
}

// JoinSpec is the untyped description of an equi-join. The build side is
// hash-loaded in memory by every join worker (a scan input); the probe
// side streams. Join emissions must be record-parallel — each probe
// record's matches are independent — which is what makes record-level
// spreading of a heavy probe key safe.
type JoinSpec struct {
	// BuildKey / ProbeKey extract the join key from each side's records.
	BuildKey func(any) uint64
	ProbeKey func(any) uint64
	// Codec encodes the join's output records.
	Codec AnyCodec
	// Join emits the matches of one (build, probe) record pair.
	Join func(build, probe any, emit func(any) error) error
	// Strategy overrides the planner's choice for this join (JoinAuto
	// lets statistics decide).
	Strategy JoinStrategy
}

// Node is one operator of the logical plan tree.
type Node struct {
	id    int
	owner *Plan
	kind  opKind
	in    []*Node // operand nodes: 1 for narrow ops, [build, probe] for join
	codec AnyCodec

	// scan
	bag string

	// Narrow ops are stored as per-worker factories: the compiler calls
	// the factory once per worker run. Only MapPerWorker exposes the
	// factory form — Filter/Map/FlatMap wrap a single shared closure, so
	// their user functions must be stateless (safe for concurrent use by
	// clones); a stateful per-record operator goes through MapPerWorker,
	// whose factory gives each worker its own state.
	filterF func() func(any) bool
	mapF    func() func(any) (any, error)
	flatF   func() func(any, func(any) error) error

	// wide ops
	gb   *GroupBySpec
	join *JoinSpec

	// topk
	k    int
	less func(a, b any) bool
}

// ID returns the node's plan-unique id (creation order, so ids are
// topologically sorted).
func (n *Node) ID() int { return n.id }

// Kind returns the operator name ("scan", "filter", ...).
func (n *Node) Kind() string { return n.kind.String() }

// sink is one requested materialized output.
type sink struct {
	bag  string
	node *Node
}

// Plan is a logical dataflow plan under construction.
type Plan struct {
	name  string
	nodes []*Node
	sinks []sink
}

// New returns an empty logical plan.
func New(name string) *Plan { return &Plan{name: name} }

// Name returns the plan (and compiled application) name.
func (p *Plan) Name() string { return p.name }

func (p *Plan) add(n *Node) *Node {
	n.id = len(p.nodes)
	n.owner = p
	p.nodes = append(p.nodes, n)
	return n
}

// Scan reads a source bag of records decoded by codec. The bag must be
// loaded and sealed by the caller before the compiled job runs.
func (p *Plan) Scan(bag string, codec AnyCodec) *Node {
	return p.add(&Node{kind: opScan, bag: bag, codec: codec})
}

// Filter keeps the records pred accepts. pred is shared by all workers
// of the stage and must be stateless.
func (p *Plan) Filter(in *Node, pred func(any) bool) *Node {
	return p.add(&Node{kind: opFilter, in: []*Node{in}, codec: in.codec,
		filterF: func() func(any) bool { return pred }})
}

// Map transforms each record; codec encodes the transformed records.
func (p *Plan) Map(in *Node, codec AnyCodec, fn func(any) (any, error)) *Node {
	return p.MapPerWorker(in, codec, func() func(any) (any, error) { return fn })
}

// MapPerWorker is Map with worker-local state: factory runs once per
// worker (original or clone), and the returned function transforms that
// worker's records. Use it for operators that batch or count across
// records — shared closures would race across concurrent clones.
func (p *Plan) MapPerWorker(in *Node, codec AnyCodec, factory func() func(any) (any, error)) *Node {
	return p.add(&Node{kind: opMap, in: []*Node{in}, codec: codec, mapF: factory})
}

// FlatMap emits zero or more records per input record. fn is shared by
// all workers of the stage and must be stateless.
func (p *Plan) FlatMap(in *Node, codec AnyCodec, fn func(any, func(any) error) error) *Node {
	return p.add(&Node{kind: opFlatMap, in: []*Node{in}, codec: codec,
		flatF: func() func(any, func(any) error) error { return fn }})
}

// GroupBy aggregates records by key behind a partitioned shuffle edge.
// The node's output records are *mergeable partials* (spec.PartialCodec):
// a key spread across several consumers, or refined mid-stream, appears
// as several partials that merge downstream (in a finalize stage, or at
// collect time for a directly sunk GroupBy).
func (p *Plan) GroupBy(in *Node, spec GroupBySpec) *Node {
	s := spec
	return p.add(&Node{kind: opGroupBy, in: []*Node{in}, codec: spec.PartialCodec, gb: &s})
}

// Join equi-joins two inputs: build (hash-loaded by every worker) and
// probe (streamed). The physical strategy — repartition, broadcast, or
// skewed — is chosen at compile time per edge from statistics unless
// spec.Strategy pins it.
func (p *Plan) Join(build, probe *Node, spec JoinSpec) *Node {
	s := spec
	return p.add(&Node{kind: opJoin, in: []*Node{build, probe}, codec: spec.Codec, join: &s})
}

// TopK keeps the k greatest records under less (less(a, b) reports a
// ranking below b). It compiles to a single-worker finalize stage: top-k
// needs a total view, and its input is already aggregated, so a serial
// tail is the honest physical form.
func (p *Plan) TopK(in *Node, k int, less func(a, b any) bool) *Node {
	return p.add(&Node{kind: opTopK, in: []*Node{in}, codec: in.codec, k: k, less: less})
}

// Sink materializes a node's records into a named output bag. A plan
// needs at least one sink; the compiled job's results are collected from
// the sink bags.
func (p *Plan) Sink(in *Node, bag string) *Plan {
	p.sinks = append(p.sinks, sink{bag: bag, node: in})
	return p
}

// ---- validation ----

// use records how a node's records are referenced downstream.
type use struct {
	consumer *Node // nil for sink uses
	sinkBag  string
	scan     bool // build side of a join (read in full, not consumed)
}

// analysis is the validated use graph Compile works from.
type analysis struct {
	uses map[*Node][]use
}

// Validate checks the logical plan for structural errors. Compile calls
// it; standalone callers may use it for early feedback.
func (p *Plan) Validate() error {
	_, err := p.analyze()
	return err
}

func (p *Plan) analyze() (*analysis, error) {
	if p.name == "" {
		return nil, fmt.Errorf("plan: plan has no name")
	}
	if len(p.sinks) == 0 {
		return nil, fmt.Errorf("plan %q: no sinks (nothing to compute)", p.name)
	}
	a := &analysis{uses: make(map[*Node][]use)}
	for _, n := range p.nodes {
		switch n.kind {
		case opScan:
			if n.bag == "" {
				return nil, fmt.Errorf("plan %q: scan with empty bag name", p.name)
			}
		case opGroupBy:
			g := n.gb
			if g.Key == nil || g.Init == nil || g.Add == nil || g.Merge == nil ||
				g.PartialCodec == nil || g.MakePartial == nil || g.SplitPartial == nil {
				return nil, fmt.Errorf("plan %q: node %d: incomplete GroupBySpec", p.name, n.id)
			}
		case opJoin:
			j := n.join
			if j.BuildKey == nil || j.ProbeKey == nil || j.Codec == nil || j.Join == nil {
				return nil, fmt.Errorf("plan %q: node %d: incomplete JoinSpec", p.name, n.id)
			}
			if n.in[0] == n.in[1] {
				return nil, fmt.Errorf("plan %q: node %d: self-join of one node (scan the bag twice instead)", p.name, n.id)
			}
		case opTopK:
			if n.k <= 0 || n.less == nil {
				return nil, fmt.Errorf("plan %q: node %d: TopK needs k > 0 and a less function", p.name, n.id)
			}
		}
		if n.codec == nil {
			return nil, fmt.Errorf("plan %q: node %d (%s) has no codec", p.name, n.id, n.kind)
		}
		for i, in := range n.in {
			if in == nil {
				return nil, fmt.Errorf("plan %q: node %d (%s) has a nil input", p.name, n.id, n.kind)
			}
			if in.owner != p {
				return nil, fmt.Errorf("plan %q: node %d (%s) uses a dataset from plan %q; datasets cannot cross plans",
					p.name, n.id, n.kind, in.owner.name)
			}
			a.uses[in] = append(a.uses[in], use{consumer: n, scan: n.kind == opJoin && i == 0})
		}
	}
	seen := make(map[string]bool, len(p.sinks))
	for _, s := range p.sinks {
		if s.bag == "" {
			return nil, fmt.Errorf("plan %q: sink with empty bag name", p.name)
		}
		if seen[s.bag] {
			return nil, fmt.Errorf("plan %q: duplicate sink bag %q", p.name, s.bag)
		}
		seen[s.bag] = true
		if s.node == nil {
			return nil, fmt.Errorf("plan %q: sink %q of a nil node", p.name, s.bag)
		}
		if s.node.owner != p {
			return nil, fmt.Errorf("plan %q: sink %q of a dataset from plan %q; datasets cannot cross plans",
				p.name, s.bag, s.node.owner.name)
		}
		a.uses[s.node] = append(a.uses[s.node], use{sinkBag: s.bag})
	}
	// Each node may have at most one consuming use (a bag is consumed by
	// exactly one task); scan (join build) uses are unbounded but cannot
	// mix with a consuming use of the same node — consumption would steal
	// chunks out from under the scanners.
	for _, n := range p.nodes {
		consuming, scanning := 0, 0
		for _, u := range a.uses[n] {
			if u.scan {
				scanning++
			} else {
				consuming++
			}
		}
		if consuming > 1 {
			return nil, fmt.Errorf("plan %q: node %d (%s) is consumed %d times; each dataset may feed one downstream path (sink or operator)",
				p.name, n.id, n.kind, consuming)
		}
		if consuming > 0 && scanning > 0 && n.kind != opScan {
			return nil, fmt.Errorf("plan %q: node %d (%s) is both consumed and used as a join build side; materialize it with two separate branches",
				p.name, n.id, n.kind)
		}
		if len(a.uses[n]) == 0 && !p.isSinkless(n) {
			return nil, fmt.Errorf("plan %q: node %d (%s) has no downstream use", p.name, n.id, n.kind)
		}
	}
	return a, nil
}

// isSinkless reports whether the node legitimately has no uses. (No node
// does — dead operators are an error — but keeping the hook explicit
// makes the rule visible.)
func (p *Plan) isSinkless(*Node) bool { return false }
