package core

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// Profile assembles the job's measured execution profile from the phase
// spans carried on done-bag events: per-stage aggregation, the critical
// path through the task DAG, and per-edge skew attribution correlated
// with the mitigation decisions the trace recorded. It is valid at any
// point in the job's life — stages that have not finished simply have no
// spans yet — and is complete once the job is done.
func (m *Master) Profile() *obs.Profile {
	m.mu.Lock()
	spans := make([]obs.TaskSpans, len(m.spans))
	copy(spans, m.spans)
	start, end := m.profStart, m.profEnd
	m.mu.Unlock()

	var wall int64
	if !start.IsZero() {
		if end.IsZero() {
			wall = time.Since(start).Nanoseconds()
		} else {
			wall = end.Sub(start).Nanoseconds()
		}
	}

	p := obs.BuildProfile(m.obs.job, wall, spans, m.stageDeps())
	m.attributeEdgeSkew(p)
	return p
}

// stageDeps maps each task spec to its upstream specs — the producers of
// its consumed and scanned bags. Spans are keyed by spec name, so the
// declared graph (not the per-worker physical partition bags) is the
// right join.
func (m *Master) stageDeps() map[string][]string {
	deps := make(map[string][]string, len(m.tasks))
	for _, name := range m.app.Tasks() {
		spec := m.app.Task(name)
		seen := map[string]bool{}
		bags := make([]string, 0, len(spec.Inputs)+len(spec.ScanInputs))
		bags = append(bags, spec.Inputs...)
		bags = append(bags, spec.ScanInputs...)
		for _, in := range bags {
			for _, prod := range m.app.Producers(in) {
				if !seen[prod] {
					seen[prod] = true
					deps[name] = append(deps[name], prod)
				}
			}
		}
	}
	return deps
}

// attributeEdgeSkew fills p.Edges: for every partitioned shuffle edge,
// the consumer stage's task-time spread (p50 vs max worker wall, the
// slowest worker's share of summed stage time) joined with the clones of
// the consumer task the trace recorded. RecoveredNS estimates
// the time cloning bought back as the working time (read + compute +
// shuffle) absorbed by the consumer's clone workers; clones always take
// the highest worker indices, so the trace's clone count identifies
// them.
func (m *Master) attributeEdgeSkew(p *obs.Profile) {
	if len(m.edges) == 0 {
		return
	}
	tr := m.obs.o.Tracer()
	for _, name := range edgeNames(m.edges) {
		edge := m.edges[name]
		es := obs.EdgeSkew{Edge: name, Consumer: edge.consumer}
		if edge.consumer != "" {
			es.Clones = countEvents(tr, m.obs.job, obs.EvTaskCloned, edge.consumer)
		}
		if st := p.Stage(edge.consumer); st != nil {
			es.P50TaskNS = st.P50TaskNS
			es.MaxTaskNS = st.MaxTaskNS
			var sum int64
			workers := make([]*obs.TaskSpans, 0, len(st.Tasks))
			for i := range st.Tasks {
				t := &st.Tasks[i]
				if t.Merge {
					continue
				}
				sum += t.WallNS()
				workers = append(workers, t)
			}
			if sum > 0 {
				es.SlowestShare = float64(st.MaxTaskNS) / float64(sum)
			}
			sort.Slice(workers, func(a, b int) bool { return workers[a].Worker > workers[b].Worker })
			for i := 0; i < es.Clones && i < len(workers); i++ {
				t := workers[i]
				es.RecoveredNS += t.ReadNS + t.ComputeNS + t.ShuffleNS
			}
		}
		p.Edges = append(p.Edges, es)
	}
}

// countEvents counts retained trace events of one type for one subject.
// Lifecycle shedding can undercount on very long jobs; decision events
// are evicted last, so the mitigation counts here are the most durable
// part of the trace.
func countEvents(tr *obs.Trace, job string, typ obs.EventType, subject string) int {
	n := 0
	for _, e := range tr.Events(job, typ) {
		if e.Subject == subject {
			n++
		}
	}
	return n
}
