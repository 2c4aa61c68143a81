package plan

import (
	"fmt"
	"strings"

	"repro/internal/obs"
)

// ExplainAnalyze renders the physical plan annotated with a measured
// execution profile (EXPLAIN ANALYZE): each stage line from Explain is
// followed by its observed worker count, elapsed time, rows, bytes, and
// phase breakdown; each join line gains the observed behaviour of its
// probe edge so the planner's compile-time choice can be checked against
// what actually happened. p is the profile of a run of this plan
// (JobHandle.Profile, or WindowResult.Profile for streams); the JSON
// sibling of this text is the Profile itself, which marshals directly.
//
// Stage spans are joined by task name, so the annotation works for raw
// and namespaced jobs alike. A stage with no recorded spans (profiling
// disabled, or the stage never ran) is annotated "(no spans)".
func (ph *Physical) ExplainAnalyze(p *obs.Profile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s (parts=%d", ph.Plan.name, ph.Opts.Parts)
	if ph.Opts.Static {
		b.WriteString(", static")
	}
	b.WriteString(") — analyzed")
	if p != nil {
		fmt.Fprintf(&b, ": wall %.1fms, critical path %.1fms",
			float64(p.WallNS)/1e6, float64(p.CriticalNS)/1e6)
	}
	b.WriteByte('\n')
	for _, s := range ph.Stages {
		fmt.Fprintf(&b, "  %-14s %s(%s)", s.Task, s.Head, s.Consumes)
		for _, op := range s.Ops {
			fmt.Fprintf(&b, " -> %s", op)
		}
		fmt.Fprintf(&b, " => %s\n", s.Output)
		st := p.Stage(s.Task)
		if st == nil {
			b.WriteString("      measured: (no spans)\n")
			continue
		}
		fmt.Fprintf(&b, "      measured: workers=%d", st.Workers)
		if st.Merges > 0 {
			fmt.Fprintf(&b, "+%dm", st.Merges)
		}
		fmt.Fprintf(&b, " time=%.1fms p50=%.1fms max=%.1fms in=%dB out=%dB",
			float64(st.WallNS)/1e6, float64(st.P50TaskNS)/1e6,
			float64(st.MaxTaskNS)/1e6, st.BytesIn, st.BytesOut)
		if st.Records > 0 {
			fmt.Fprintf(&b, " rows=%d", st.Records)
		}
		fmt.Fprintf(&b, "\n      phases:   %s\n", st.Phases.String())
	}
	for _, j := range ph.Joins {
		fmt.Fprintf(&b, "  join@%d: %s — %s", j.Node, j.Strategy, j.Reason)
		if es := profileEdge(p, j.Edge); es != nil {
			fmt.Fprintf(&b, "\n      observed: p50=%.1fms max=%.1fms slowest=%.0f%% clones=%d",
				float64(es.P50TaskNS)/1e6, float64(es.MaxTaskNS)/1e6,
				es.SlowestShare*100, es.Clones)
		}
		b.WriteByte('\n')
	}
	if p != nil && len(p.Critical) > 0 {
		names := make([]string, len(p.Critical))
		for i, st := range p.Critical {
			names[i] = st.Task
		}
		fmt.Fprintf(&b, "  critical path: %s (%.1fms: %s)\n",
			strings.Join(names, " -> "), float64(p.CriticalNS)/1e6, p.CriticalBy.String())
	}
	return b.String()
}

// profileEdge finds the profile's skew attribution for a plan edge.
// Namespaced jobs store the edge as "<prefix>/<edge>", so the lookup
// matches the exact name or a "/"-separated suffix.
func profileEdge(p *obs.Profile, edge string) *obs.EdgeSkew {
	if p == nil || edge == "" {
		return nil
	}
	for i := range p.Edges {
		e := &p.Edges[i]
		if e.Edge == edge || strings.HasSuffix(e.Edge, "/"+edge) {
			return e
		}
	}
	return nil
}
