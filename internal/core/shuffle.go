package core

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/chunk"
	"repro/internal/ctrl"
	"repro/internal/obs"
	"repro/internal/shuffle"
	"repro/internal/sketch"
)

// EdgeMemory is what a finished job remembers about one partitioned
// shuffle edge: the final partition map (base layout plus every runtime
// split and isolation) and the last merged producer sketch. The streaming
// subsystem feeds a window's EdgeMemory into shuffle.WarmStart to seed
// the next window's partitioner, so known-hot keys are pre-split or
// pre-isolated instead of rediscovered from scratch each window.
type EdgeMemory struct {
	PMap  *shuffle.PartitionMap
	Stats *sketch.EdgeStats
}

// EdgeMemory is the map and stats of the control plane's last record of
// every edge (ctrl.Hub.Edges), keyed by the (namespaced) logical bag
// name. Valid at any time; most useful after the job completes, when every
// edge has been recorded with its final map and stats.
func (m *Master) EdgeMemory() map[string]EdgeMemory {
	edges := m.hub.Edges()
	out := make(map[string]EdgeMemory, len(edges))
	for name, e := range edges {
		out[name] = EdgeMemory{PMap: e.PMap, Stats: e.Stats}
	}
	return out
}

// shuffleEdge is the master's state for one partitioned shuffle bag: the
// current partition map and refinement bookkeeping. The *decision* to
// refine lives in the control plane's policies (internal/ctrl); this file
// only tracks state and applies the resulting actions.
type shuffleEdge struct {
	name      string
	spec      *BagSpec
	pmap      *shuffle.PartitionMap // swapped under m.mu; read by other goroutines
	producers []string
	consumer  string // consuming task name, or ""

	splitTried map[string]bool // leaves that cannot be refined further
}

// newShuffleEdges builds edge state for every partitioned bag of the app.
func newShuffleEdges(app *App) map[string]*shuffleEdge {
	edges := make(map[string]*shuffleEdge)
	for _, name := range app.Bags() {
		spec := app.BagSpecFor(name)
		if spec == nil || spec.Partitions <= 0 {
			continue
		}
		consumer := ""
		if cons := app.Consumers(name); len(cons) > 0 {
			consumer = cons[0]
		}
		edges[name] = &shuffleEdge{
			name:       name,
			spec:       spec,
			pmap:       shuffle.BaseMap(name, spec.Partitions),
			producers:  app.Producers(name),
			consumer:   consumer,
			splitTried: make(map[string]bool),
		}
	}
	return edges
}

// edgeNames returns the edge map's keys in deterministic order.
func edgeNames(edges map[string]*shuffleEdge) []string {
	return slices.Sorted(maps.Keys(edges))
}

// adoptPublishedMaps replays every edge's published-map bag from index 0,
// as a master's first tick replays the work bags: after a master crash it
// reconstructs the split history exactly (the pmap bag is append-only and
// versions are ordered). It runs once per master — the master is the only
// publisher, and publishMap adopts what it publishes. A map adopted from
// the bag is a predecessor's, whose crash may have cut its publish short
// between the bag and the home slot: it is announced to the producers again.
func (m *Master) adoptPublishedMaps() error {
	for _, name := range edgeNames(m.edges) {
		edge, adopted := m.edges[name], false
		_, err := m.store.Scanner(shuffle.PMapBag(name)).Drain(m.ctx, func(c chunk.Chunk) error {
			pm, err := shuffle.DecodePartitionMap(c)
			if err != nil || pm.Bag != name || pm.Base != edge.spec.Partitions {
				return nil // tolerate foreign records in the control bag
			}
			m.mu.Lock()
			if pm.Version > edge.pmap.Version {
				edge.pmap, adopted = pm, true
			}
			m.mu.Unlock()
			return nil
		})
		if err != nil {
			return err
		}
		if adopted {
			m.announceMap(edge)
		}
	}
	return nil
}

// announceMap leaves the edge's current map on the edge's home slot, where
// the producers' control exchanges find it. Idempotent (the slot keeps the
// newest version) and best-effort: a producer that misses a map routes by
// an older one, which costs balance, never correctness.
func (m *Master) announceMap(edge *shuffleEdge) {
	m.mu.Lock()
	pm := edge.pmap
	m.mu.Unlock()
	if pm.Version > 1 { // everyone derives version 1 locally
		_ = m.store.PublishSketchMap(m.ctx, edge.name, pm.Version, pm.Encode())
	}
}

// edgeTelLocked is the master's authoritative state of one edge, to which
// the hub adds the stats. Active means partition-map refinements can still
// take effect: no producer finished (the map is about to be final), consumer
// not scheduled (that fixes the worker↔partition assignment). Holds m.mu.
func (m *Master) edgeTelLocked(edge *shuffleEdge) *ctrl.EdgeTel {
	active := edge.consumer == "" || !m.tasks[edge.consumer].scheduled
	for _, p := range edge.producers {
		active = active && !m.tasks[p].finished
	}
	return &ctrl.EdgeTel{
		Name:         edge.name,
		PMap:         edge.pmap,
		Spread:       edge.spec.Spread,
		Active:       active,
		Unsplittable: edge.splitTried,
	}
}

// edgeStillActive reports whether a refinement of the edge can still be
// applied (edgeTelLocked's Active, read now).
func (m *Master) edgeStillActive(edge *shuffleEdge) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.edgeTelLocked(edge).Active
}

// applySplit applies a SplitPartition action: re-hash one hot base
// partition into Fan sub-partitions. Splitting only redirects records not
// yet written, so it is always safe.
func (m *Master) applySplit(act ctrl.SplitPartition) (bool, error) {
	edge := m.edges[act.Edge]
	if edge == nil || !m.edgeStillActive(edge) {
		return false, nil
	}
	m.mu.Lock()
	pmap := edge.pmap
	m.mu.Unlock()
	if act.Partition < 0 || act.Partition >= pmap.Base || pmap.Splits[act.Partition] > 1 {
		return false, nil // stale proposal: partition already refined
	}
	fan := act.Fan
	if fan <= 1 {
		fan = 2
	}
	next := pmap.Clone()
	if next.Splits == nil {
		next.Splits = make(map[int]int)
	}
	next.Splits[act.Partition] = fan
	next.Version++
	if err := m.publishMap(edge, next); err != nil {
		return false, err
	}
	m.mu.Lock()
	m.splits++
	m.mu.Unlock()
	m.obs.splits.Inc()
	m.obs.emit(obs.EvPartitionSplit, act.Edge,
		fmt.Sprintf("partition=%d fan=%d leaf=%s version=%d", act.Partition, fan, act.Leaf, next.Version))
	return true, nil
}

// applyIsolate applies an IsolateKey action: divert one heavy-hitter key
// into a dedicated bag, spread over Fan bags when the edge permits.
func (m *Master) applyIsolate(act ctrl.IsolateKey) (bool, error) {
	edge := m.edges[act.Edge]
	if edge == nil || !m.edgeStillActive(edge) {
		return false, nil
	}
	m.mu.Lock()
	pmap := edge.pmap
	m.mu.Unlock()
	hash := shuffle.KeyHash(act.Key)
	if pmap.IsIsolated(hash) {
		return false, nil // stale proposal: key already isolated
	}
	fan := act.Fan
	if fan < 1 || !edge.spec.Spread {
		fan = 1
	}
	next := pmap.Clone()
	next.Isolated = append(next.Isolated, shuffle.Isolation{
		Hash: hash, Fan: fan, Key: append([]byte(nil), act.Key...),
	})
	next.Version++
	if err := m.publishMap(edge, next); err != nil {
		return false, err
	}
	m.mu.Lock()
	m.isolations++
	m.mu.Unlock()
	m.obs.isolations.Inc()
	m.obs.emit(obs.EvKeyIsolated, act.Edge,
		fmt.Sprintf("key=%x fan=%d version=%d", act.Key, fan, next.Version))
	return true, nil
}

// publishSeeds publishes the submission's warm-start seed maps
// (MasterConfig.Seeds) for their edges. It runs in the
// master's goroutine before the first scheduling pass, so no producer
// can route a record before the seed is visible — and it never blocks
// the cluster lock. The maps already published (a recovered successor,
// or a previous attempt) were replayed just before, so seeding is
// idempotent: a seed at or below the known version is skipped.
// Best-effort throughout: a failed publish costs a cold start.
func (m *Master) publishSeeds() {
	for _, name := range edgeNames(m.edges) {
		seed := m.cfg.Seeds[name]
		if seed == nil {
			continue
		}
		edge := m.edges[name]
		m.mu.Lock()
		known := edge.pmap.Version
		m.mu.Unlock()
		if seed.Version <= known {
			continue
		}
		sm := seed.Clone()
		sm.Bag = name
		_ = m.publishMap(edge, sm)
	}
}

// publishMap publishes a refined partition map and adopts it. Publish
// first, adopt second: producers must never observe a map the master (and
// a recovered successor) would not also know about.
func (m *Master) publishMap(edge *shuffleEdge, next *shuffle.PartitionMap) error {
	if err := shuffle.Publish(m.ctx, m.store, next); err != nil {
		return err
	}
	m.mu.Lock()
	edge.pmap = next
	m.mu.Unlock()
	m.obs.emit(obs.EvMapRevision, edge.name,
		fmt.Sprintf("version=%d splits=%d isolated=%d", next.Version, len(next.Splits), len(next.Isolated)))
	return nil
}
