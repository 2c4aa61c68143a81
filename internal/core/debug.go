package core

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/sketch"
)

// The live debug surface. DebugHandler serves the cluster's observability
// over HTTP:
//
//	/metrics             Prometheus text exposition of the metrics registry
//	/debug/trace         the skew-event trace as JSON (?job=, ?type=, and
//	                     ?trace= — the submitter-minted causal ID — filter)
//	/debug/skew          per-edge heavy-hitter table and partition heat, from
//	                     the live merged producer sketches
//	/debug/profile/<job> the job's execution profile (JobHandle.Profile) as
//	                     JSON: per-stage phase spans, critical path, edge skew
//	/debug/explain/<job> the job's EXPLAIN ANALYZE as text (the compiled
//	                     plan's rendering when the job registered one)
//	/debug/timeseries    the sampled metric history as JSON (?series=
//	                     substring filters, ?since= incremental polls)
//	/debug/alerts        watchdog status: rules, per-series states, and
//	                     the raised-alert history (?firing=1 filters)
//	/debug/dash          the live dashboard — one self-contained HTML
//	                     page with inline sparklines polling the above
//	/debug/pprof/        the standard net/http/pprof profiles
//
// /debug/profile/ and /debug/explain/ with an empty job name accept
// ?trace=<id> and resolve the job through its submission trace ID.
//
// cmd/hurricane-run mounts it with -serve; embedded users mount it on any
// mux. Handlers read the same structures the control plane writes, so
// they are safe against a running cluster.

// HeavyHitter is one heavy key of a shuffle edge as reported by the
// merged producer sketches. Key is the raw key bytes hex-encoded;
// KeyUint64 additionally decodes 8-byte keys as little-endian uint64 (the
// encoding of hurricane.Uint64Key), which is how most workloads key their
// records.
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

// SkewEdge is the live skew picture of one partitioned shuffle edge.
type SkewEdge struct {
	Job     string `json:"job"`
	Edge    string `json:"edge"`
	Version int    `json:"version"`
	Base    int    `json:"base"`
	// Splits maps base partition -> split fan (only refined partitions).
	Splits   map[int]int `json:"splits,omitempty"`
	Isolated int         `json:"isolated"`
	Records  uint64      `json:"records"`
	// Partitions is the per-partition heat table, hottest first.
	Partitions []PartitionHeat `json:"partitions,omitempty"`
	// Heavy lists the heavy-hitter keys, heaviest first.
	Heavy []HeavyHitter `json:"heavy,omitempty"`
}

// SkewReport assembles the live skew picture across every job the
// cluster knows: for each partitioned edge, the current partition map
// (base layout, splits, isolations) joined with the freshest merged
// producer sketch — fetched live from storage when available, falling
// back to the master's last captured stats (a sealed edge's sketch state
// is deleted at seal time). Edges that never saw a record are skipped.
func (c *Cluster) SkewReport(ctx context.Context) []SkewEdge {
	c.mu.Lock()
	jobs := make([]*JobHandle, 0, len(c.jobs))
	for _, h := range c.jobs {
		jobs = append(jobs, h)
	}
	c.mu.Unlock()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].id < jobs[j].id })
	var out []SkewEdge
	for _, h := range jobs {
		m := h.Master()
		if m == nil {
			continue
		}
		mem := m.EdgeMemory()
		names := make([]string, 0, len(mem))
		for name := range mem {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			em := mem[name]
			stats := em.Stats
			if fresh, err := c.store.FetchSketch(ctx, name); err == nil && fresh != nil && fresh.Total() > 0 {
				stats = fresh
			}
			se := SkewEdge{Job: h.id, Edge: name}
			if em.PMap != nil {
				se.Version = em.PMap.Version
				se.Base = em.PMap.Base
				se.Isolated = len(em.PMap.Isolated)
				if len(em.PMap.Splits) > 0 {
					se.Splits = make(map[int]int, len(em.PMap.Splits))
					for p, fan := range em.PMap.Splits {
						se.Splits[p] = fan
					}
				}
			}
			if stats == nil || stats.Total() == 0 {
				continue
			}
			se.Records = stats.Total()
			total := float64(se.Records)
			for bag, n := range stats.Counts {
				se.Partitions = append(se.Partitions, PartitionHeat{
					Bag: bag, Records: n, Share: float64(n) / total,
				})
			}
			sort.Slice(se.Partitions, func(i, j int) bool {
				a, b := se.Partitions[i], se.Partitions[j]
				if a.Records != b.Records {
					return a.Records > b.Records
				}
				return a.Bag < b.Bag
			})
			for _, hk := range stats.TopKeys(sketch.MaxHeavyKeys, 0) {
				hh := HeavyHitter{
					Key:   hex.EncodeToString(hk.Key),
					Count: hk.Count,
					Share: float64(hk.Count) / total,
				}
				if len(hk.Key) == 8 {
					u := binary.LittleEndian.Uint64(hk.Key)
					hh.KeyUint64 = &u
				}
				se.Heavy = append(se.Heavy, hh)
			}
			out = append(out, se)
		}
	}
	return out
}

// skewSource feeds the time-series recorder the per-edge heat shares on
// every sample tick: the top partition's share of the edge's records and
// the top heavy key's share, labeled by job and edge. It reads only the
// masters' captured EdgeMemory stats — deliberately never the live
// sketch bags, so sampling stays off the wire (SkewReport pays that cost
// on demand; a 4 Hz sampler must not).
func (c *Cluster) skewSource() obs.Source {
	return func(emit func(string, float64)) {
		c.mu.Lock()
		jobs := make([]*JobHandle, 0, len(c.jobs))
		for _, h := range c.jobs {
			jobs = append(jobs, h)
		}
		c.mu.Unlock()
		for _, h := range jobs {
			m := h.Master()
			if m == nil {
				continue
			}
			for name, em := range m.EdgeMemory() {
				stats := em.Stats
				if stats == nil || stats.Total() == 0 {
					continue
				}
				total := float64(stats.Total())
				var top uint64
				for _, n := range stats.Counts {
					if n > top {
						top = n
					}
				}
				lbl := fmt.Sprintf("{edge=%q,job=%q}", name, h.id)
				emit("hurricane_skew_partition_top_share"+lbl, float64(top)/total)
				if hk := stats.TopKeys(1, 0); len(hk) > 0 {
					emit("hurricane_skew_key_top_share"+lbl, float64(hk[0].Count)/total)
				}
			}
		}
	}
}

// DebugHandler returns the HTTP handler serving /metrics, /debug/trace,
// /debug/skew, the continuous-telemetry surfaces (/debug/timeseries,
// /debug/alerts, /debug/dash), and /debug/pprof/. Mount it at the server
// root (the paths are absolute).
func (c *Cluster) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = c.obs.Registry().WriteText(w)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		job := r.URL.Query().Get("job")
		trace := r.URL.Query().Get("trace")
		typ := obs.EventType(r.URL.Query().Get("type"))
		tr := c.obs.Tracer()
		resp := struct {
			Dropped uint64      `json:"dropped"`
			Events  []obs.Event `json:"events"`
		}{Dropped: tr.Dropped(), Events: tr.EventsFiltered(job, trace, typ)}
		if resp.Events == nil {
			resp.Events = []obs.Event{}
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/debug/skew", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
		defer cancel()
		report := c.SkewReport(ctx)
		if report == nil {
			report = []SkewEdge{}
		}
		writeJSON(w, report)
	})
	mux.HandleFunc("/debug/profile/", func(w http.ResponseWriter, r *http.Request) {
		job := strings.TrimPrefix(r.URL.Path, "/debug/profile/")
		h := c.debugJob(job, r.URL.Query().Get("trace"))
		if h == nil {
			http.Error(w, "unknown job "+job, http.StatusNotFound)
			return
		}
		p := h.Profile()
		if p == nil {
			http.Error(w, "job "+job+" is queued; no profile yet", http.StatusNotFound)
			return
		}
		writeJSON(w, p)
	})
	mux.HandleFunc("/debug/explain/", func(w http.ResponseWriter, r *http.Request) {
		job := strings.TrimPrefix(r.URL.Path, "/debug/explain/")
		h := c.debugJob(job, r.URL.Query().Get("trace"))
		if h == nil {
			http.Error(w, "unknown job "+job, http.StatusNotFound)
			return
		}
		text := h.Explain()
		if text == "" {
			http.Error(w, "job "+job+" is queued; no profile yet", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(text))
	})
	mux.Handle("/debug/timeseries", obs.TimeseriesHandler(c.rec))
	mux.Handle("/debug/alerts", obs.AlertsHandler(c.watch))
	mux.Handle("/debug/dash", obs.DashHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// debugJob resolves a debug request's job selector: an explicit job
// name wins; an empty name with ?trace= resolves through the submission
// trace ID; an empty name alone falls back to the primary job.
func (c *Cluster) debugJob(job, trace string) *JobHandle {
	if job != "" {
		return c.Job(job)
	}
	if trace != "" {
		return c.JobByTrace(trace)
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
