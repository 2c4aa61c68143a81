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
// isolated keys its seed carried) and the merge of its producers' final
// statistics. The streaming subsystem feeds a window's EdgeMemory into
// shuffle.WarmStart to seed the next window's partitioner, so known-hot
// keys are pre-isolated instead of rediscovered from scratch each window.
type EdgeMemory struct {
	PMap  *shuffle.PartitionMap
	Stats *sketch.EdgeStats
}

// EdgeMemory is the map and stats of the control plane's record of every
// sealed edge (ctrl.Hub.Edges), keyed by the (namespaced) logical bag
// name. An edge has a record once it seals, so after the job completes
// every edge has its final map and stats.
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

// physicalBags expands a logical bag name to the physical bags holding its
// data: the partition-map leaves for a partitioned shuffle bag, the name
// itself otherwise.
func (m *Master) physicalBags(name string) []string {
	if edge := m.edges[name]; edge != nil {
		return edge.pmap.Leaves()
	}
	return []string{name}
}

// edgeTelLocked is the master's record of one edge: its map, and the merge
// of the statistics its producers' done records carried at their current
// epochs, in blueprint-ID order (nil if none carried any). The master
// hands it to the hub when the edge seals. Holds m.mu.
func (m *Master) edgeTelLocked(edge *shuffleEdge) *ctrl.EdgeTel {
	tel := &ctrl.EdgeTel{Name: edge.name, PMap: edge.pmap, Spread: edge.spec.Spread}
	for _, p := range edge.producers {
		done := m.tasks[p].edgeStats
		for _, id := range slices.Sorted(maps.Keys(done)) {
			if st := done[id][edge.name]; st != nil {
				if tel.Stats == nil {
					tel.Stats = &sketch.EdgeStats{}
				}
				_ = tel.Stats.Merge(st) // no count-min cells: it cannot fail
			}
		}
	}
	return tel
}
