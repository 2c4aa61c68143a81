// Package core implements Hurricane's execution engine: the application
// graph, task blueprints, worker runtime, per-node task managers, and the
// application master with its task cloning machinery. This is the paper's
// primary contribution — adaptive work partitioning through task cloning —
// built on the bag/chunk/storage substrates.
package core

import (
	"fmt"
	"sort"
)

// A TaskFunc is the body of a task. It consumes chunks from the task's
// input bags and produces chunks into its output bags through the
// TaskCtx. Multiple workers (the original task plus clones) may run the
// same TaskFunc concurrently against the same input bags; the bag
// abstraction guarantees each chunk is processed exactly once.
type TaskFunc func(tc *TaskCtx) error

// TaskSpec declares one task of the application graph.
type TaskSpec struct {
	// Name uniquely identifies the task within the application and keys
	// the registered TaskFunc.
	Name string
	// Inputs and Outputs name the task's input and output bags. Inputs
	// are consumed: each chunk is delivered to exactly one worker of this
	// task. A bag may be the consumed input of at most one task.
	Inputs  []string
	Outputs []string
	// ScanInputs name bags the task reads in full without consuming them
	// (§4.3: "allowing multiple workers to read an entire bag
	// concurrently"). Every worker — original and clones — sees the whole
	// bag, which is how a hash join's build side or PageRank's rank
	// vector is shared. Scan inputs are scheduling dependencies like
	// Inputs, and any number of tasks may scan the same bag.
	ScanInputs []string
	// Run is the task body.
	Run TaskFunc
	// Merge, if non-nil, reconciles the partial outputs of clones into
	// the final output (§2.3). Tasks with a nil Merge use concatenation:
	// clones insert directly into the shared output bag. A task with a
	// Merge must have exactly one output.
	Merge TaskFunc
	// Pipelined schedules the task as soon as all producers of its input
	// bags are scheduled, instead of waiting for the bags to seal. The
	// task streams chunks as they are produced and terminates when the
	// bags seal and drain — the "more sophisticated dataflow execution
	// model for streaming workloads" the paper leaves as future work
	// (§3.1). Scan inputs still require sealed bags (a scan must see the
	// complete contents).
	Pipelined bool
	// NoClone excludes the task from cloning (used to build the
	// HurricaneNC configuration from the paper's Figure 6).
	NoClone bool
	// MaxClones caps live workers of this task — workers that finished do
	// not count; 0 means "up to the cluster's worker slots".
	MaxClones int
}

// requiresMerge reports whether cloned outputs need reconciliation.
func (t *TaskSpec) requiresMerge() bool { return t.Merge != nil }

// BagSpec declares one bag of the application graph.
type BagSpec struct {
	Name string
	// Source marks a bag whose contents are supplied by the application
	// before the job runs (e.g. the input click log). Source bags must be
	// sealed by the caller before Run.
	Source bool
	// Partitions > 0 declares a key-partitioned shuffle edge: the logical
	// bag is multiplexed onto Partitions physical partition bags
	// ("<name>.p<i>"). Producers must write it through a
	// PartitionedWriter; the consumer task gets one worker per physical
	// partition (internal/shuffle).
	Partitions int
	// Spread permits spreading one key's records across several
	// consumers: a seed map's isolated heavy-hitter keys over their fan,
	// and a hot partition's chunks over clones of its consumer. Safe
	// whenever the consumer's per-key results are mergeable downstream
	// (counts, sums, sketches, join probes); leave false if a consumer
	// must see all records of a key.
	Spread bool
}

// App is an application graph: a DAG of tasks and bags (§2.1). Build one
// with NewApp and the AddBag/AddTask methods, then hand it to a Cluster.
type App struct {
	name  string
	tasks map[string]*TaskSpec
	bags  map[string]*BagSpec
	dup   error // the first redeclared name, for Validate to report

	// derived wiring
	producers map[string][]string // bag -> producing task names
	consumers map[string][]string // bag -> consuming task names
	scanners  map[string][]string // bag -> scanning task names
}

// NewApp returns an empty application graph.
func NewApp(name string) *App {
	return &App{
		name:      name,
		tasks:     make(map[string]*TaskSpec),
		bags:      make(map[string]*BagSpec),
		producers: make(map[string][]string),
		consumers: make(map[string][]string),
		scanners:  make(map[string][]string),
	}
}

// Name returns the application name.
func (a *App) Name() string { return a.name }

// AddBag declares a bag. Redeclaring a name is an error at Validate time.
func (a *App) AddBag(spec BagSpec) *App {
	if _, dup := a.bags[spec.Name]; dup && a.dup == nil {
		a.dup = fmt.Errorf("core: bag %q declared twice", spec.Name)
	}
	s := spec
	a.bags[spec.Name] = &s
	return a
}

// SourceBag declares a source bag (input data supplied by the caller).
func (a *App) SourceBag(name string) *App {
	return a.AddBag(BagSpec{Name: name, Source: true})
}

// Bag declares an intermediate or output bag.
func (a *App) Bag(name string) *App {
	return a.AddBag(BagSpec{Name: name})
}

// PartitionedBag declares a key-partitioned shuffle bag with parts base
// partitions. Use AddBag with a full BagSpec to also set Spread.
func (a *App) PartitionedBag(name string, parts int) *App {
	return a.AddBag(BagSpec{Name: name, Partitions: parts})
}

// BagSpecFor returns the named bag's spec, or nil.
func (a *App) BagSpecFor(name string) *BagSpec { return a.bags[name] }

// partitioned reports whether a bag is a partitioned shuffle edge.
func (a *App) partitioned(name string) bool {
	b := a.bags[name]
	return b != nil && b.Partitions > 0
}

// AddTask declares a task. Redeclaring a name is an error at Validate time.
func (a *App) AddTask(spec TaskSpec) *App {
	if _, dup := a.tasks[spec.Name]; dup && a.dup == nil {
		a.dup = fmt.Errorf("core: task %q declared twice", spec.Name)
	}
	s := spec
	a.tasks[spec.Name] = &s
	return a
}

// Task returns the named task spec, or nil.
func (a *App) Task(name string) *TaskSpec { return a.tasks[name] }

// Tasks returns all task names in deterministic order.
func (a *App) Tasks() []string {
	out := make([]string, 0, len(a.tasks))
	for n := range a.tasks {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Bags returns all bag names in deterministic order.
func (a *App) Bags() []string {
	out := make([]string, 0, len(a.bags))
	for n := range a.bags {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Producers returns the tasks producing into the named bag.
func (a *App) Producers(bagName string) []string { return a.producers[bagName] }

// Consumers returns the tasks consuming the named bag.
func (a *App) Consumers(bagName string) []string { return a.consumers[bagName] }

// Validate checks the graph for structural errors: undeclared bags,
// unnamed or duplicate tasks, merge arity, source bags with producers, and
// cycles. It also computes the producer/consumer wiring used by the
// master.
func (a *App) Validate() error {
	if a.dup != nil {
		return a.dup
	}
	a.producers = make(map[string][]string)
	a.consumers = make(map[string][]string)
	a.scanners = make(map[string][]string)
	for name, t := range a.tasks {
		if name == "" {
			return fmt.Errorf("core: task with empty name")
		}
		if t.Run == nil {
			return fmt.Errorf("core: task %q has no Run function", name)
		}
		if t.requiresMerge() && len(t.Outputs) != 1 {
			return fmt.Errorf("core: task %q has a merge but %d outputs (need exactly 1)",
				name, len(t.Outputs))
		}
		if len(t.Inputs) == 0 && len(t.ScanInputs) == 0 {
			return fmt.Errorf("core: task %q has no inputs", name)
		}
		for _, b := range t.Inputs {
			if _, ok := a.bags[b]; !ok {
				return fmt.Errorf("core: task %q reads undeclared bag %q", name, b)
			}
			if a.partitioned(b) {
				// A partitioned consumer's workers each own one physical
				// partition; mixing in other consumed inputs would break
				// the worker↔partition assignment.
				if len(t.Inputs) != 1 {
					return fmt.Errorf("core: task %q consumes partitioned bag %q alongside other inputs", name, b)
				}
				// DOCUMENTED LIMITATION — pipelined ≠ partitioned. A
				// partitioned consumer is scheduled once its producers
				// have sealed the edge; starting it while they run is not
				// implemented. The supported way to stream over
				// partitioned edges is the windowed path (internal/stream):
				// the unbounded input is cut into event-time windows, each
				// executed as a complete DAG job — and cross-window skew
				// memory carries the learned partition maps between
				// windows, which pipelining could not do at all.
				if t.Pipelined {
					return fmt.Errorf("core: task %q: pipelined consumption of partitioned bag %q is unsupported; use the windowed streaming path (internal/stream)", name, b)
				}
			}
			a.consumers[b] = append(a.consumers[b], name)
		}
		for _, b := range t.ScanInputs {
			if _, ok := a.bags[b]; !ok {
				return fmt.Errorf("core: task %q scans undeclared bag %q", name, b)
			}
			if a.partitioned(b) {
				return fmt.Errorf("core: task %q scans partitioned bag %q; scan the underlying source instead", name, b)
			}
			a.scanners[b] = append(a.scanners[b], name)
		}
		for _, b := range t.Outputs {
			spec, ok := a.bags[b]
			if !ok {
				return fmt.Errorf("core: task %q writes undeclared bag %q", name, b)
			}
			if spec.Source {
				return fmt.Errorf("core: task %q writes source bag %q", name, b)
			}
			if spec.Partitions > 0 && t.requiresMerge() {
				// Partitioned producers write physical bags directly via
				// PartitionedWriter; clone reconciliation happens in the
				// partitioned consumers, not in a merge task.
				return fmt.Errorf("core: task %q: a merge procedure cannot target partitioned bag %q", name, b)
			}
			a.producers[b] = append(a.producers[b], name)
		}
	}
	for name, b := range a.bags {
		if b.Partitions > 0 && b.Source {
			return fmt.Errorf("core: partitioned bag %q cannot be a source bag", name)
		}
		if b.Spread && b.Partitions <= 0 {
			return fmt.Errorf("core: bag %q sets Spread without Partitions", name)
		}
	}
	for b := range a.producers {
		sort.Strings(a.producers[b])
	}
	for b, cons := range a.consumers {
		sort.Strings(cons)
		// Consuming a bag destroys it for other readers: the chunk-level
		// exactly-once guarantee is per bag, not per task, so two
		// different tasks consuming one bag would silently steal each
		// other's chunks. Clones of a single task are the supported
		// sharing mode; cross-task sharing must use ScanInputs.
		if len(cons) > 1 {
			return fmt.Errorf("core: bag %q is consumed by %d tasks (%v); only one consumer is allowed — use ScanInputs to share",
				b, len(cons), cons)
		}
	}
	return a.checkAcyclic()
}

// checkAcyclic verifies the task/bag graph has no cycles via Kahn's
// algorithm over tasks (edges task→task through bags).
func (a *App) checkAcyclic() error {
	// indegree over tasks: an edge exists from producer to consumer of a bag.
	indeg := make(map[string]int, len(a.tasks))
	succ := make(map[string][]string, len(a.tasks))
	for name := range a.tasks {
		indeg[name] = 0
	}
	for bagName, prods := range a.producers {
		for _, p := range prods {
			for _, c := range a.consumers[bagName] {
				succ[p] = append(succ[p], c)
				indeg[c]++
			}
			for _, c := range a.scanners[bagName] {
				succ[p] = append(succ[p], c)
				indeg[c]++
			}
		}
	}
	queue := make([]string, 0, len(indeg))
	for n, d := range indeg {
		if d == 0 {
			queue = append(queue, n)
		}
	}
	seen := 0
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, m := range succ[n] {
			indeg[m]--
			if indeg[m] == 0 {
				queue = append(queue, m)
			}
		}
	}
	if seen != len(a.tasks) {
		return fmt.Errorf("core: application graph has a cycle")
	}
	return nil
}

// sourceBags returns the names of all source bags.
func (a *App) sourceBags() []string {
	var out []string
	for n, b := range a.bags {
		if b.Source {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
