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
//   - plain repartition join otherwise — which still adapts at runtime:
//     the edge is Spread, so clones share a hot partition chunk by chunk
//     even when compile-time statistics were absent.
//
// Records are typed end to end. The generic constructors below (Scan,
// Filter, Map, ... — package repro/hurricane/q is the public surface over
// them) capture each operator's record types in a kernel factory; the graph,
// validation, stage formation and the stage loop see a Node, not its types.
// The one interface conversion per operator happens when a worker wires its
// stage (runStage): each kernel is handed its downstream func([]U) error,
// and from there a chunk decodes into a []T, travels through the kernels as
// typed vectors, and is encoded from one — no record is ever boxed.
package plan

import (
	"fmt"
	"sort"

	"repro/internal/chunk"
)

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

// GroupBySpec describes a keyed aggregation of T records into A
// accumulators. The aggregate must be mergeable (§2.3): Add folds one
// record into an accumulator, Merge reconciles two accumulators of the same
// key — which is what lets the engine spread a heavy key's records across
// several consumers and reconcile downstream.
type GroupBySpec[T, A any] struct {
	// Key extracts the routing key of an input record.
	Key func(T) uint64
	// AccCodec encodes an accumulator; the node's output records are
	// (key, accumulator) partials under PairCodec{Uint64Codec, AccCodec}.
	AccCodec chunk.Codec[A]
	// Init returns a fresh accumulator.
	Init func() A
	// Add folds one record into an accumulator, returning it.
	Add func(A, T) A
	// Merge reconciles two accumulators for the same key.
	Merge func(A, A) A
}

// JoinStrategy is a physical join implementation.
type JoinStrategy int

const (
	// JoinAuto lets compile-time statistics decide (the default).
	JoinAuto JoinStrategy = iota
	// JoinRepartition shuffles the probe side through a partitioned edge;
	// runtime clones still share its hot partitions.
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

// JoinSpec describes an equi-join of L build records with R probe records
// into O output records. The build side is loaded into a table in memory by
// every join worker (a scan input); the probe side streams. Join emissions
// must be record-parallel — each probe record's matches are independent —
// which is what makes record-level spreading of a heavy probe key safe.
type JoinSpec[L, R, O any] struct {
	// BuildKey / ProbeKey extract the join key from each side's records.
	BuildKey func(L) uint64
	ProbeKey func(R) uint64
	// Codec encodes the join's output records.
	Codec chunk.Codec[O]
	// Join emits the matches of one (build, probe) record pair.
	Join func(build L, probe R, emit func(O) error) error
	// Strategy overrides the planner's choice for this join (JoinAuto
	// lets statistics decide).
	Strategy JoinStrategy
}

// Node is one operator of the logical plan tree. Its record types live in
// rec and in the closures the constructors filled in; everything that holds
// a vector function as `any` is asserted once, when a worker wires a stage.
type Node struct {
	id    int
	owner *Plan
	kind  opKind
	in    []*Node // operand nodes: 1 for narrow ops, [build, probe] for join
	rec   records // the node's record type: how its records are read and written
	err   error   // what the constructor found wrong, reported by Validate

	bag string // scan

	// wire builds the operator's kernel for one worker run (see kernel).
	// Filter/Map/FlatMap close over one shared user function, which must
	// therefore be stateless (safe for concurrent use by clones); a
	// stateful per-record operator goes through MapPerWorker, whose factory
	// runs inside wire and gives each worker its own state.
	wire func(down, table any) kernel

	// Wide ops. edgeKey is a func(T) uint64 over the records crossing the
	// operator's shuffle edge (GroupBy's Key, Join's ProbeKey).
	edgeKey    any
	readMerged func(next chunkSource, down any) error       // groupby: finalized read
	strategy   JoinStrategy                                 // join
	loadTable  func(src chunkSource) (table any, err error) // join: build side -> *joinTable[L]
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

// holds reports, as an error for Validate, an operand whose records are not
// T. (A nil or codec-less operand is Validate's to report.)
func holds[T any](in *Node) error {
	if in == nil || in.rec == nil {
		return nil
	}
	if _, ok := in.rec.(recs[T]); !ok {
		return fmt.Errorf("reads %T records, but node %d (%s) holds %T", *new(T), in.id, in.kind, in.rec)
	}
	return nil
}

// recordsOf returns the record type of an operator that keeps its input's.
func recordsOf(in *Node) records {
	if in == nil {
		return nil
	}
	return in.rec
}

// Scan reads a source bag of records decoded by codec. The bag must be
// loaded and sealed by the caller before the compiled job runs.
func Scan[T any](p *Plan, bag string, codec chunk.Codec[T]) *Node {
	return p.add(&Node{kind: opScan, bag: bag, rec: recsOf(codec)})
}

// Filter keeps the records pred accepts, compacting each vector in place.
// pred is shared by all workers of the stage and must be stateless.
func Filter[T any](p *Plan, in *Node, pred func(T) bool) *Node {
	n := &Node{kind: opFilter, in: []*Node{in}, rec: recordsOf(in), err: holds[T](in)}
	n.wire = func(down, _ any) kernel {
		next := down.(func([]T) error)
		return kernel{in: func(vec []T) error {
			kept := vec[:0]
			for _, v := range vec {
				if pred(v) {
					kept = append(kept, v)
				}
			}
			return next(kept)
		}}
	}
	return p.add(n)
}

// Map transforms each record; codec encodes the transformed records.
func Map[T, U any](p *Plan, in *Node, codec chunk.Codec[U], fn func(T) (U, error)) *Node {
	return MapPerWorker(p, in, codec, func() func(T) (U, error) { return fn })
}

// MapPerWorker is Map with worker-local state: factory runs once per
// worker (original or clone), and the returned function transforms that
// worker's records into a vector the kernel owns. Use it for operators that
// batch or count across records — shared closures would race across
// concurrent clones.
func MapPerWorker[T, U any](p *Plan, in *Node, codec chunk.Codec[U], factory func() func(T) (U, error)) *Node {
	n := &Node{kind: opMap, in: []*Node{in}, rec: recsOf(codec), err: holds[T](in)}
	n.wire = func(down, _ any) kernel {
		next, fn := down.(func([]U) error), factory()
		var out []U
		return kernel{in: func(vec []T) error {
			out = out[:0]
			for _, v := range vec {
				u, err := fn(v)
				if err != nil {
					return err
				}
				out = append(out, u)
			}
			return next(out)
		}}
	}
	return p.add(n)
}

// FlatMap emits zero or more records per input record. fn is shared by
// all workers of the stage and must be stateless.
func FlatMap[T, U any](p *Plan, in *Node, codec chunk.Codec[U], fn func(T, func(U) error) error) *Node {
	n := &Node{kind: opFlatMap, in: []*Node{in}, rec: recsOf(codec), err: holds[T](in)}
	n.wire = func(down, _ any) kernel {
		return kernel{in: expand(down.(func([]U) error), fn)}
	}
	return p.add(n)
}

// GroupBy aggregates records by key behind a partitioned shuffle edge.
// The node's output records are *mergeable partials*, Pair[uint64, A]: a
// key spread across several consumers appears as
// several partials that merge downstream (in a finalize stage, or at
// collect time for a directly sunk GroupBy).
func GroupBy[T, A any](p *Plan, in *Node, spec GroupBySpec[T, A]) *Node {
	type partial = chunk.Pair[uint64, A]
	n := &Node{kind: opGroupBy, in: []*Node{in}, err: holds[T](in)}
	if spec.Key == nil || spec.AccCodec == nil || spec.Init == nil || spec.Add == nil || spec.Merge == nil {
		n.err = fmt.Errorf("incomplete GroupBySpec")
		return p.add(n)
	}
	rec := recsOf[partial](chunk.PairCodec[uint64, A]{A: chunk.Uint64Codec{}, B: spec.AccCodec})
	n.rec, n.edgeKey = rec, spec.Key
	n.wire = func(down, _ any) kernel {
		next := down.(func([]partial) error)
		var g groups[A]
		return kernel{
			in: func(vec []T) error {
				for _, v := range vec {
					acc, fresh := g.acc(spec.Key(v))
					if fresh {
						*acc = spec.Init()
					}
					*acc = spec.Add(*acc, v)
				}
				return nil
			},
			finish: func() error { return next(g.sorted()) },
		}
	}
	// Drain the partial bag completely, merge by key, and hand on the
	// finalized records in key order.
	n.readMerged = func(src chunkSource, down any) error {
		next := down.(func([]partial) error)
		var g groups[A]
		err := rec.read(src, func(vec []partial) error {
			for _, v := range vec {
				if acc, fresh := g.acc(v.First); fresh {
					*acc = v.Second
				} else {
					*acc = spec.Merge(*acc, v.Second)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		return next(g.sorted())
	}
	return p.add(n)
}

// Join equi-joins two inputs: build (loaded into a table by every worker)
// and probe (streamed). The physical strategy — repartition, broadcast, or
// skewed — is chosen at compile time per edge from statistics unless
// spec.Strategy pins it.
func Join[L, R, O any](p *Plan, build, probe *Node, spec JoinSpec[L, R, O]) *Node {
	n := &Node{kind: opJoin, in: []*Node{build, probe}, err: holds[R](probe), strategy: spec.Strategy}
	if spec.BuildKey == nil || spec.ProbeKey == nil || spec.Codec == nil || spec.Join == nil {
		n.err = fmt.Errorf("incomplete JoinSpec")
		return p.add(n)
	}
	if n.err == nil {
		n.err = holds[L](build)
	}
	n.rec, n.edgeKey = recsOf(spec.Codec), spec.ProbeKey
	n.loadTable = func(src chunkSource) (any, error) {
		var rows []L
		err := build.read(src, build.kind == opGroupBy, func(vec []L) error {
			rows = append(rows, vec...)
			return nil
		})
		if err != nil {
			return nil, err
		}
		return newJoinTable(rows, spec.BuildKey)
	}
	n.wire = func(down, table any) kernel {
		t := table.(*joinTable[L])
		return kernel{in: expand(down.(func([]O) error), func(r R, emit func(O) error) error {
			for _, b := range t.lookup(spec.ProbeKey(r)) {
				if err := spec.Join(b, r, emit); err != nil {
					return err
				}
			}
			return nil
		})}
	}
	return p.add(n)
}

// TopK keeps the k greatest records under less (less(a, b) reports a
// ranking below b). It compiles to a single-worker finalize stage: top-k
// needs a total view, and its input is already aggregated, so a serial
// tail is the honest physical form.
func TopK[T any](p *Plan, in *Node, k int, less func(a, b T) bool) *Node {
	n := &Node{kind: opTopK, in: []*Node{in}, rec: recordsOf(in), err: holds[T](in)}
	if k <= 0 || less == nil {
		n.err = fmt.Errorf("TopK needs k > 0 and a less function")
	}
	n.wire = func(down, _ any) kernel {
		next := down.(func([]T) error)
		var top []T
		return kernel{
			in: func(vec []T) error {
				for _, v := range vec {
					// Insertion into a k-bounded, descending-sorted slice:
					// k is small, the input is already aggregated.
					i := sort.Search(len(top), func(i int) bool { return less(top[i], v) })
					if i >= k {
						continue
					}
					top = append(top, v)
					copy(top[i+1:], top[i:])
					top[i] = v
					if len(top) > k {
						top = top[:k]
					}
				}
				return nil
			},
			finish: func() error { return next(top) },
		}
	}
	return p.add(n)
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
		if n.kind == opScan && n.bag == "" {
			return nil, fmt.Errorf("plan %q: scan with empty bag name", p.name)
		}
		if n.kind == opJoin && n.in[0] == n.in[1] {
			return nil, fmt.Errorf("plan %q: node %d: self-join of one node (scan the bag twice instead)", p.name, n.id)
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
		if n.err != nil {
			return nil, fmt.Errorf("plan %q: node %d (%s): %w", p.name, n.id, n.kind, n.err)
		}
		if n.rec == nil {
			return nil, fmt.Errorf("plan %q: node %d (%s) has no codec", p.name, n.id, n.kind)
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
