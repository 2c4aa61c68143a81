package core

import (
	"cmp"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/pprof"
	"slices"
	"strings"

	"repro/internal/ctrl"
	"repro/internal/obs"
)

// The live debug surface. DebugHandler serves the cluster's observability
// over HTTP:
//
//	/metrics             Prometheus text exposition of the metrics registry
//	/debug/trace         the skew-event trace as JSON (?job= and ?type=
//	                     filter)
//	/debug/skew          per-edge heavy-hitter table and partition heat, from
//	                     the control plane's last record of each edge
//	/debug/profile/<job> the job's execution profile (JobHandle.Profile) as
//	                     JSON: per-stage phase spans, critical path, edge skew
//	/debug/explain/<job> the job's EXPLAIN ANALYZE as text (the compiled
//	                     plan's rendering when the job registered one)
//	/debug/pprof/        the standard net/http/pprof profiles
//
// A job is named by the name it was submitted under (JobConfig.Name); a
// remote submitter already knows it. An empty name on /debug/profile/ and
// /debug/explain/ selects the primary job.
//
// cmd/hurricane-run mounts it with -serve; embedded users mount it on any
// mux. Handlers read the same structures the control plane writes, so
// they are safe against a running cluster.

// HeavyHitter is one heavy key of a shuffle edge as reported by the
// merged producer sketches. Key is the raw key bytes hex-encoded;
// KeyUint64 additionally decodes 8-byte keys as little-endian uint64 (what
// a partitioned writer's uint64 key stands for), which is how most
// workloads key their records.
type HeavyHitter struct {
	Key       string  `json:"key"`
	KeyUint64 *uint64 `json:"key_u64,omitempty"`
	Count     uint64  `json:"count"`
	Share     float64 `json:"share"`
}

// PartitionHeat is the record count routed to one physical partition bag
// of an edge, with its share of the edge total.
type PartitionHeat struct {
	Bag     string  `json:"bag"`
	Records uint64  `json:"records"`
	Share   float64 `json:"share"`
}

// SkewEdge is the skew picture of one partitioned shuffle edge.
type SkewEdge struct {
	Job      string `json:"job"`
	Edge     string `json:"edge"`
	Version  int    `json:"version"`
	Base     int    `json:"base"`
	Isolated int    `json:"isolated"`
	Records  uint64 `json:"records"`
	// Partitions is the per-partition heat table, hottest first.
	Partitions []PartitionHeat `json:"partitions,omitempty"`
	// Heavy lists the heavy-hitter keys, heaviest first.
	Heavy []HeavyHitter `json:"heavy,omitempty"`
}

// edgeRecords visits the control plane's last record (ctrl.Hub.Edges) of
// every partitioned edge that has seen a record, jobs and edges in name
// order. It reads memory only: what the operator surfaces show is what the
// controllers last saw, and showing it costs the storage tier nothing.
func (c *Cluster) edgeRecords(visit func(job string, e *ctrl.EdgeTel, h ctrl.Heat)) {
	c.mu.Lock()
	jobs := slices.SortedFunc(maps.Values(c.jobs), func(a, b *JobHandle) int { return cmp.Compare(a.id, b.id) })
	c.mu.Unlock()
	for _, h := range jobs {
		edges := h.Master().hub.Edges()
		for _, name := range slices.Sorted(maps.Keys(edges)) {
			e := edges[name]
			if heat := ctrl.EdgeHeat(&e); heat.Records > 0 {
				visit(h.id, &e, heat)
			}
		}
	}
}

// SkewReport renders the skew picture of every partitioned edge that has
// seen a record: the partition map (base partitions, isolated keys) and
// merged producer sketch of the control plane's last record of the edge —
// taken by its rate-limited fetch while the edge is produced, and once
// more when it seals.
func (c *Cluster) SkewReport() []SkewEdge {
	var out []SkewEdge
	c.edgeRecords(func(job string, e *ctrl.EdgeTel, heat ctrl.Heat) {
		se := SkewEdge{
			Job: job, Edge: e.Name, Records: heat.Records, Version: e.PMap.Version,
			Base: e.PMap.Base, Isolated: len(e.PMap.Isolated),
		}
		for bag, n := range e.Stats.Counts {
			se.Partitions = append(se.Partitions, PartitionHeat{Bag: bag, Records: n, Share: heat.Share(n)})
		}
		slices.SortFunc(se.Partitions, func(a, b PartitionHeat) int {
			return cmp.Or(cmp.Compare(b.Records, a.Records), cmp.Compare(a.Bag, b.Bag))
		})
		for _, hk := range heat.Heavy {
			hh := HeavyHitter{
				Key:   hex.EncodeToString(hk.Key),
				Count: hk.Count,
				Share: heat.Share(hk.Count),
			}
			if len(hk.Key) == 8 {
				u := binary.LittleEndian.Uint64(hk.Key)
				hh.KeyUint64 = &u
			}
			se.Heavy = append(se.Heavy, hh)
		}
		out = append(out, se)
	})
	return out
}

// DebugHandler returns the HTTP handler serving /metrics, /debug/trace,
// /debug/skew, /debug/profile/, /debug/explain/ and /debug/pprof/. Mount
// it at the server root (the paths are absolute).
func (c *Cluster) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = c.obs.Registry().WriteText(w)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		job := r.URL.Query().Get("job")
		typ := obs.EventType(r.URL.Query().Get("type"))
		tr := c.obs.Tracer()
		resp := struct {
			Dropped uint64      `json:"dropped"`
			Events  []obs.Event `json:"events"`
		}{Dropped: tr.Dropped(), Events: tr.Events(job, typ)}
		if resp.Events == nil {
			resp.Events = []obs.Event{}
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/debug/skew", func(w http.ResponseWriter, r *http.Request) {
		report := c.SkewReport()
		if report == nil {
			report = []SkewEdge{}
		}
		writeJSON(w, report)
	})
	mux.HandleFunc("/debug/profile/", func(w http.ResponseWriter, r *http.Request) {
		job := strings.TrimPrefix(r.URL.Path, "/debug/profile/")
		h := c.debugJob(job)
		if h == nil {
			http.Error(w, "unknown job "+job, http.StatusNotFound)
			return
		}
		writeJSON(w, h.Profile())
	})
	mux.HandleFunc("/debug/explain/", func(w http.ResponseWriter, r *http.Request) {
		job := strings.TrimPrefix(r.URL.Path, "/debug/explain/")
		h := c.debugJob(job)
		if h == nil {
			http.Error(w, "unknown job "+job, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(h.Explain()))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// debugJob resolves a debug request's job selector: a job name selects
// that job; an empty name falls back to the primary job.
func (c *Cluster) debugJob(job string) *JobHandle {
	if job != "" {
		return c.Job(job)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.primary
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
