package core

import (
	"maps"
	"slices"

	"repro/internal/ctrl"
	"repro/internal/shuffle"
	"repro/internal/sketch"
)

// EdgeMemory is what a finished job remembers about one partitioned
// shuffle edge: the final partition map (its base partitions plus the
// isolated keys its seed carried) and the last merged producer sketch. The
// streaming subsystem feeds a window's EdgeMemory into shuffle.WarmStart to
// seed the next window's partitioner, so known-hot keys are pre-isolated
// instead of rediscovered from scratch each window.
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

// shuffleEdge is the master's state for one partitioned shuffle bag: its
// partition map, fixed at submission, and who produces and consumes it.
type shuffleEdge struct {
	name      string
	spec      *BagSpec
	pmap      *shuffle.PartitionMap
	producers []string
	consumer  string // consuming task name, or ""
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
		pmap := spec.seed
		if pmap == nil {
			pmap = shuffle.BaseMap(name, spec.Partitions)
		}
		edges[name] = &shuffleEdge{
			name:      name,
			spec:      spec,
			pmap:      pmap,
			producers: app.Producers(name),
			consumer:  consumer,
		}
	}
	return edges
}

// edgeNames returns the edge map's keys in deterministic order.
func edgeNames(edges map[string]*shuffleEdge) []string {
	return slices.Sorted(maps.Keys(edges))
}

// edgeTelLocked is the master's authoritative state of one edge, to which
// the hub adds the stats. Active means the edge is still being produced: no
// producer finished and the consumer not scheduled. The hub fetches stats
// only for active edges; the seal-time observation takes the final ones.
// Holds m.mu.
func (m *Master) edgeTelLocked(edge *shuffleEdge) *ctrl.EdgeTel {
	active := edge.consumer == "" || !m.tasks[edge.consumer].scheduled
	for _, p := range edge.producers {
		active = active && !m.tasks[p].finished
	}
	return &ctrl.EdgeTel{
		Name:   edge.name,
		PMap:   edge.pmap,
		Spread: edge.spec.Spread,
		Active: active,
	}
}
