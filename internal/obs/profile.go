package obs

import (
	"fmt"
	"sort"
	"strings"
)

// The profiler decomposes every task worker's lifetime into a small fixed
// set of phases. Phase names are part of the JSON surface
// (/debug/profile) and of EXPLAIN ANALYZE output.
const (
	// PhaseQueue: blueprint published by the master until a compute node
	// started the worker (wake → claim, plus waiting for a free slot and
	// fair-share gating).
	PhaseQueue = "queue"
	// PhaseRead: blocked removing/scanning input chunks from storage.
	PhaseRead = "read"
	// PhaseCompute: running task code (wall time minus every other
	// in-worker phase).
	PhaseCompute = "compute"
	// PhaseShuffle: encoding and writing output — inserter waits plus
	// partitioned-writer chunk flushes.
	PhaseShuffle = "shuffle"
	// PhaseFinalize: end-of-task flush — draining buffered writers,
	// closing shuffle writers (final sketch push), closing inserters.
	PhaseFinalize = "finalize"
)

// TaskSpans is one worker's phase accounting, recorded by the compute
// node and shipped to the master inside the task's done event. All
// durations are nanoseconds; Started/Ended are unix nanoseconds.
type TaskSpans struct {
	TaskID string `json:"task"`   // blueprint ID ("spec/wN@eM")
	Spec   string `json:"spec"`   // task spec name (= plan stage)
	Worker int    `json:"worker"` // worker index within the task
	Merge  bool   `json:"merge,omitempty"`

	StartedNS int64 `json:"started_ns"`
	EndedNS   int64 `json:"ended_ns"`

	QueueNS    int64 `json:"queue_ns"`
	ReadNS     int64 `json:"read_ns"`
	ComputeNS  int64 `json:"compute_ns"`
	ShuffleNS  int64 `json:"shuffle_ns"`
	FinalizeNS int64 `json:"finalize_ns"`

	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
	ChunksIn int64 `json:"chunks_in"`
	// Records counts records routed through the worker's partitioned
	// shuffle writers (exact, from the writers' per-leaf counts); 0 for
	// tasks that only write plain bags.
	Records int64 `json:"records,omitempty"`
	// Parts is the per-partition record breakdown of those writes, keyed
	// by physical partition bag.
	Parts map[string]int64 `json:"parts,omitempty"`
}

// WallNS is the worker's in-node lifetime (excludes queue wait).
func (s *TaskSpans) WallNS() int64 { return s.EndedNS - s.StartedNS }

// Phases is a per-phase duration breakdown, summable across tasks.
type Phases struct {
	QueueNS    int64 `json:"queue_ns"`
	ReadNS     int64 `json:"read_ns"`
	ComputeNS  int64 `json:"compute_ns"`
	ShuffleNS  int64 `json:"shuffle_ns"`
	FinalizeNS int64 `json:"finalize_ns"`
}

func (p *Phases) add(s *TaskSpans) {
	p.QueueNS += s.QueueNS
	p.ReadNS += s.ReadNS
	p.ComputeNS += s.ComputeNS
	p.ShuffleNS += s.ShuffleNS
	p.FinalizeNS += s.FinalizeNS
}

// TotalNS sums every phase — for a single task this is queue wait plus
// worker wall time.
func (p Phases) TotalNS() int64 {
	return p.QueueNS + p.ReadNS + p.ComputeNS + p.ShuffleNS + p.FinalizeNS
}

// StageProfile aggregates every worker (clones and merges included) of
// one task spec.
type StageProfile struct {
	Task    string `json:"task"` // task spec name
	Workers int    `json:"workers"`
	Merges  int    `json:"merges,omitempty"`
	// WallNS is the stage's elapsed span: earliest worker start to latest
	// worker end.
	WallNS int64 `json:"wall_ns"`
	// P50TaskNS / MaxTaskNS are the median and slowest worker wall times
	// — their ratio is the stage's straggler factor.
	P50TaskNS int64  `json:"p50_task_ns"`
	MaxTaskNS int64  `json:"max_task_ns"`
	Phases    Phases `json:"phases"`

	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
	Records  int64 `json:"records,omitempty"`

	Tasks []TaskSpans `json:"tasks"`
}

// CriticalStep is one task on the job's critical path: the worker that
// bounded its stage, with its phase breakdown.
type CriticalStep struct {
	TaskID string `json:"task"`
	Task   string `json:"spec"`
	Phases Phases `json:"phases"`
}

// EdgeSkew is the time-based skew attribution for one partitioned
// shuffle edge, measured on its consumer stage and correlated with the
// mitigation actions the trace recorded for the edge.
type EdgeSkew struct {
	Edge     string `json:"edge"`
	Consumer string `json:"consumer,omitempty"`
	// P50TaskNS / MaxTaskNS are consumer worker wall times.
	P50TaskNS int64 `json:"p50_task_ns"`
	MaxTaskNS int64 `json:"max_task_ns"`
	// SlowestShare is the slowest consumer worker's fraction of the
	// stage's summed worker wall time — 1/workers when perfectly
	// balanced, approaching 1 under total skew.
	SlowestShare float64 `json:"slowest_share"`
	// Mitigation actions the trace recorded for the edge (splits,
	// isolations) and its consumer (clones).
	Splits     int `json:"splits"`
	Isolations int `json:"isolations"`
	Clones     int `json:"clones"`
	// RecoveredNS estimates the consumer time mitigation bought back: the
	// working time (read+compute+shuffle) clone workers absorbed — work
	// that would otherwise have queued on the original workers.
	RecoveredNS int64 `json:"recovered_ns"`
}

// Profile is the measured execution profile of one job: per-stage span
// aggregation, the critical path that bounded wall clock, and per-edge
// skew attribution. Assembled by the master from the done-event spans;
// serialized as-is on /debug/profile/<job>.
type Profile struct {
	Job string `json:"job"`
	// TraceID is the causal trace ID minted at the job's submission,
	// when one travelled with it (see JobConfig.TraceID). It lets a
	// remote submitter fetch this profile from the serving cluster's
	// debug endpoint without knowing the job's server-side name.
	TraceID string `json:"trace_id,omitempty"`
	// WallNS is the measured job wall time (master start to completion).
	WallNS int64 `json:"wall_ns"`
	// Stages in dependency order (upstream first).
	Stages []StageProfile `json:"stages"`
	// Critical is the chain of tasks that bounded wall clock, upstream
	// first; CriticalNS is the sum of its phase totals. CriticalNS ≈
	// WallNS — the gap is scheduler latency between stages.
	Critical   []CriticalStep `json:"critical"`
	CriticalNS int64          `json:"critical_ns"`
	CriticalBy Phases         `json:"critical_by"`
	Edges      []EdgeSkew     `json:"edges,omitempty"`
}

// Stage returns the named stage's profile, or nil.
func (p *Profile) Stage(task string) *StageProfile {
	if p == nil {
		return nil
	}
	for i := range p.Stages {
		if p.Stages[i].Task == task {
			return &p.Stages[i]
		}
	}
	return nil
}

// BuildProfile assembles a job profile from raw task spans. deps maps a
// task spec name to its upstream spec names (producers of its inputs);
// it drives both stage ordering and the critical-path walk.
//
// The critical path is computed at stage granularity with barrier
// semantics — a partitioned consumer cannot start before its producers
// sealed, which is exactly how the engine schedules — walking back from
// the stage that finished last, at each step following the upstream
// stage that finished latest, and charging each chosen stage its
// latest-finishing worker (the one the successor actually waited for).
func BuildProfile(job string, wallNS int64, spans []TaskSpans, deps map[string][]string) *Profile {
	p := &Profile{Job: job, WallNS: wallNS}
	if len(spans) == 0 {
		return p
	}

	byStage := make(map[string][]*TaskSpans)
	for i := range spans {
		s := &spans[i]
		byStage[s.Spec] = append(byStage[s.Spec], s)
	}

	for spec, ss := range byStage {
		sp := StageProfile{Task: spec}
		start, end := ss[0].StartedNS, ss[0].EndedNS
		walls := make([]int64, 0, len(ss))
		for _, s := range ss {
			if s.Merge {
				sp.Merges++
			} else {
				sp.Workers++
			}
			if s.StartedNS < start {
				start = s.StartedNS
			}
			if s.EndedNS > end {
				end = s.EndedNS
			}
			walls = append(walls, s.WallNS())
			sp.Phases.add(s)
			sp.BytesIn += s.BytesIn
			sp.BytesOut += s.BytesOut
			sp.Records += s.Records
			sp.Tasks = append(sp.Tasks, *s)
		}
		sp.WallNS = end - start
		sort.Slice(walls, func(a, b int) bool { return walls[a] < walls[b] })
		sp.P50TaskNS = walls[len(walls)/2]
		sp.MaxTaskNS = walls[len(walls)-1]
		sort.Slice(sp.Tasks, func(a, b int) bool { return sp.Tasks[a].TaskID < sp.Tasks[b].TaskID })
		p.Stages = append(p.Stages, sp)
	}
	// Dependency order: upstream stages first, ties by earliest start.
	depth := stageDepths(byStage, deps)
	sort.Slice(p.Stages, func(a, b int) bool {
		da, db := depth[p.Stages[a].Task], depth[p.Stages[b].Task]
		if da != db {
			return da < db
		}
		return stageStart(byStage[p.Stages[a].Task]) < stageStart(byStage[p.Stages[b].Task])
	})

	// Critical path: start from the stage that finished last.
	last := ""
	var lastEnd int64
	for spec, ss := range byStage {
		if e := stageEnd(ss); last == "" || e > lastEnd {
			last, lastEnd = spec, e
		}
	}
	seen := make(map[string]bool)
	var chain []CriticalStep
	for cur := last; cur != "" && !seen[cur]; {
		seen[cur] = true
		bound := slowestFinisher(byStage[cur])
		step := CriticalStep{TaskID: bound.TaskID, Task: cur}
		step.Phases.add(bound)
		chain = append(chain, step)
		next, nextEnd := "", int64(0)
		for _, up := range deps[cur] {
			ss := byStage[up]
			if len(ss) == 0 || seen[up] {
				continue
			}
			if e := stageEnd(ss); next == "" || e > nextEnd {
				next, nextEnd = up, e
			}
		}
		cur = next
	}
	// Reverse to upstream-first.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	p.Critical = chain
	for _, st := range chain {
		p.CriticalNS += st.Phases.TotalNS()
		p.CriticalBy.QueueNS += st.Phases.QueueNS
		p.CriticalBy.ReadNS += st.Phases.ReadNS
		p.CriticalBy.ComputeNS += st.Phases.ComputeNS
		p.CriticalBy.ShuffleNS += st.Phases.ShuffleNS
		p.CriticalBy.FinalizeNS += st.Phases.FinalizeNS
	}
	return p
}

func stageStart(ss []*TaskSpans) int64 {
	v := ss[0].StartedNS
	for _, s := range ss {
		if s.StartedNS < v {
			v = s.StartedNS
		}
	}
	return v
}

func stageEnd(ss []*TaskSpans) int64 {
	v := ss[0].EndedNS
	for _, s := range ss {
		if s.EndedNS > v {
			v = s.EndedNS
		}
	}
	return v
}

// slowestFinisher picks the stage's latest-ending span — the worker (or
// merge) every successor had to wait for.
func slowestFinisher(ss []*TaskSpans) *TaskSpans {
	v := ss[0]
	for _, s := range ss {
		if s.EndedNS > v.EndedNS {
			v = s
		}
	}
	return v
}

// stageDepths assigns each observed stage its longest-path depth in the
// dependency graph (sources = 0), tolerating deps entries for stages
// that recorded no spans.
func stageDepths(byStage map[string][]*TaskSpans, deps map[string][]string) map[string]int {
	depth := make(map[string]int, len(byStage))
	var walk func(spec string, hops int) int
	walk = func(spec string, hops int) int {
		if d, ok := depth[spec]; ok {
			return d
		}
		if hops > len(byStage)+len(deps) {
			return 0 // cycle guard; the graph validator forbids cycles
		}
		d := 0
		for _, up := range deps[spec] {
			if _, ok := byStage[up]; !ok {
				continue
			}
			if ud := walk(up, hops+1) + 1; ud > d {
				d = ud
			}
		}
		depth[spec] = d
		return d
	}
	for spec := range byStage {
		walk(spec, 0)
	}
	return depth
}

// String renders the profile as a fixed-width report (one stage per
// line, then the critical path) — the embedded-API sibling of the
// /debug/profile JSON.
func (p *Profile) String() string {
	if p == nil {
		return "(no profile)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "profile %s: wall %.1fms, critical path %.1fms over %d stage(s)\n",
		p.Job, float64(p.WallNS)/1e6, float64(p.CriticalNS)/1e6, len(p.Critical))
	for _, st := range p.Stages {
		fmt.Fprintf(&b, "  %-14s workers=%d wall=%.1fms p50=%.1fms max=%.1fms in=%dB out=%dB",
			st.Task, st.Workers, float64(st.WallNS)/1e6,
			float64(st.P50TaskNS)/1e6, float64(st.MaxTaskNS)/1e6, st.BytesIn, st.BytesOut)
		if st.Records > 0 {
			fmt.Fprintf(&b, " records=%d", st.Records)
		}
		b.WriteByte('\n')
	}
	for _, st := range p.Critical {
		fmt.Fprintf(&b, "  critical %-14s %s\n", st.Task, st.Phases.String())
	}
	for _, e := range p.Edges {
		fmt.Fprintf(&b, "  edge %-14s p50=%.1fms max=%.1fms slowest=%.0f%% splits=%d isolations=%d clones=%d recovered=%.1fms\n",
			e.Edge, float64(e.P50TaskNS)/1e6, float64(e.MaxTaskNS)/1e6,
			e.SlowestShare*100, e.Splits, e.Isolations, e.Clones, float64(e.RecoveredNS)/1e6)
	}
	return b.String()
}

// String renders the breakdown as "queue=…ms read=…ms …" — shared by
// the profile report and EXPLAIN ANALYZE.
func (p Phases) String() string {
	return fmt.Sprintf("queue=%.1fms read=%.1fms compute=%.1fms shuffle=%.1fms finalize=%.1fms",
		float64(p.QueueNS)/1e6, float64(p.ReadNS)/1e6, float64(p.ComputeNS)/1e6,
		float64(p.ShuffleNS)/1e6, float64(p.FinalizeNS)/1e6)
}
