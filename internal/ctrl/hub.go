package ctrl

import (
	"context"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// maxPendingOverloads bounds the hub's overload buffer, which holds one
// signal per worker. Signals of further workers are dropped: overload
// signals are advisory and re-sent by the nodes' monitors every interval.
const maxPendingOverloads = 1024

// Cause names one thing a wake asks the control loop to look at. Causes
// accumulate in the hub as a set until the loop takes them.
type Cause uint32

const (
	// CauseReady, CauseRunning and CauseDone each say that one work bag
	// has new records: the loop drains that bag's scanner and no other.
	CauseReady Cause = 1 << iota
	CauseRunning
	CauseDone

	// CauseRecords is every record bag: what a master's first pass and
	// its fallback rescan look at.
	CauseRecords = CauseReady | CauseRunning | CauseDone
)

// SampleBagFunc probes one bag's depth (in the engine: a sampled stats
// RPC over the bag's slots).
type SampleBagFunc func(ctx context.Context, bag string) (*BagTel, error)

// HubConfig wires a Hub to its telemetry sources.
type HubConfig struct {
	// ProbeInterval is how long a bag's depth probe is reused, by the
	// snapshot that took it and by later ones (the engine: CloneInterval).
	ProbeInterval time.Duration
	// SampleBag probes bag depths for clone placement and the work-left
	// check; nil makes the policies decline every clone (tests install
	// synthetic probes).
	SampleBag SampleBagFunc
	// Obs receives the hub's metrics (snapshot count, snapshot lag,
	// overload signals seen and dropped); nil disables them. Job labels
	// the series in a multi-job cluster.
	Obs *obs.Observer
	Job string
}

// Hub is the event-driven telemetry hub. It keeps two kinds of signal
// apart. A Cause (Raise) says a work bag grew: it wakes the control loop,
// which blocks on Wake instead of polling, takes the accumulated set and
// scans what the set names. An overload signal is telemetry: it buffers,
// the newest per worker, and wakes nothing — once per policy interval the
// loop calls Snapshot, which drains the buffer into one versioned view and
// augments it with lazy bag-depth probes. The hub also keeps the record of
// every sealed shuffle edge (ObserveEdge). Node liveness is not the hub's:
// the master keeps heartbeats itself.
type Hub struct {
	cfg HubConfig

	wake   chan struct{}
	causes atomic.Uint32 // the pending Cause set

	mu      sync.Mutex
	version uint64
	// overloads holds the newest undrained signal of every worker, in
	// order of each worker's first; overloadAt indexes it.
	overloads  []Overload
	overloadAt map[overloadKey]int
	probes     map[string]probe   // the last depth probe of every bag sampled
	edges      map[string]EdgeTel // the record of every edge sealed
	// firstSignal is when the oldest still-undrained buffered signal
	// arrived; Snapshot observes the drain delay as snapshot lag.
	firstSignal time.Time

	// cached metric handles (nil-safe no-ops when cfg.Obs is nil)
	mSnapshots *obs.Counter
	mOverloads *obs.Counter
	mDropped   *obs.Counter
	mLag       *obs.Histogram
}

// overloadKey identifies the worker an overload signal speaks for.
type overloadKey struct {
	task          string
	epoch, worker int
	merge         bool
}

// probe is one remembered depth probe (nil tel: the probe failed).
type probe struct {
	at  time.Time
	tel *BagTel
}

// NewHub creates a hub. The zero HubConfig is valid (no bag probes):
// signals still batch and Wake still fires.
func NewHub(cfg HubConfig) *Hub {
	job := []string{"job", cfg.Job}
	return &Hub{
		cfg:        cfg,
		wake:       make(chan struct{}, 1),
		overloadAt: make(map[overloadKey]int),
		probes:     make(map[string]probe),
		edges:      make(map[string]EdgeTel),
		mSnapshots: cfg.Obs.Counter("hurricane_ctrl_snapshots_total", job...),
		mOverloads: cfg.Obs.Counter("hurricane_ctrl_overloads_total", job...),
		mDropped:   cfg.Obs.Counter("hurricane_ctrl_overloads_dropped_total", job...),
		// A buffered signal waits for the next control pass: up to one
		// policy interval, by design.
		mLag: cfg.Obs.Histogram("hurricane_ctrl_snapshot_lag_us", job...),
	}
}

// Wake returns the hub's wake channel: it receives (coalesced) whenever a
// cause is raised. The master's loop selects on it alongside its timer.
func (h *Hub) Wake() <-chan struct{} { return h.wake }

// Raise adds c to the pending cause set and wakes the control loop without
// blocking; concurrent raises coalesce into one wake and one set.
func (h *Hub) Raise(c Cause) {
	h.causes.Or(uint32(c))
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// Take returns the pending cause set and empties it. The loop takes before
// it looks at what the causes name, so a cause raised while it is looking
// is returned — with a fresh wake — by the next Take and never lost.
func (h *Hub) Take() Cause { return Cause(h.causes.Swap(0)) }

// OverloadSignal ingests one overload signal, replacing an undrained
// earlier one from the same worker: the buffer holds one signal per live
// worker however late the next snapshot is. Signals of workers beyond the
// cap are dropped (they are advisory and periodically re-sent).
func (h *Hub) OverloadSignal(o Overload) {
	key := overloadKey{o.Task, o.Epoch, o.Worker, o.Merge}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.mOverloads.Inc()
	if i, ok := h.overloadAt[key]; ok {
		h.overloads[i] = o
		return
	}
	if len(h.overloads) >= maxPendingOverloads {
		h.mDropped.Inc()
		return
	}
	h.overloadAt[key] = len(h.overloads)
	h.overloads = append(h.overloads, o)
	if h.firstSignal.IsZero() {
		h.firstSignal = time.Now()
	}
}

// ObserveEdge makes e the hub's record of its edge. The master calls it
// when an edge seals, with the edge's map and its producers' final stats.
func (h *Hub) ObserveEdge(e EdgeTel) {
	h.mu.Lock()
	h.edges[e.Name] = e
	h.mu.Unlock()
}

// Edges returns the hub's record of every sealed edge, keyed by edge name.
// The records outlive the job: their maps and stats are what a later run
// warm-starts from.
func (h *Hub) Edges() map[string]EdgeTel {
	h.mu.Lock()
	defer h.mu.Unlock()
	return maps.Clone(h.edges)
}

// Snapshot drains the batched signals into a new versioned Snapshot. The
// fill callback lets the owner (the master) contribute its authoritative
// task state; afterwards the hub installs the memoized bag-depth prober.
func (h *Hub) Snapshot(ctx context.Context, fill func(*Snapshot)) *Snapshot {
	h.mu.Lock()
	h.version++
	snap := &Snapshot{
		Version:   h.version,
		Now:       time.Now(),
		Tasks:     make(map[string]*TaskTel),
		Overloads: h.overloads,
	}
	h.overloads = nil
	clear(h.overloadAt)
	if !h.firstSignal.IsZero() {
		h.mLag.Observe(snap.Now.Sub(h.firstSignal).Microseconds())
		h.firstSignal = time.Time{}
	}
	h.mu.Unlock()
	h.mSnapshots.Inc()

	if fill != nil {
		fill(snap)
	}

	if snap.SampleBag == nil && h.cfg.SampleBag != nil {
		snap.SampleBag = func(bag string) *BagTel {
			h.mu.Lock()
			p, ok := h.probes[bag]
			h.mu.Unlock()
			if ok && !p.at.Add(h.cfg.ProbeInterval).Before(snap.Now) {
				return p.tel
			}
			tel, err := h.cfg.SampleBag(ctx, bag)
			if err != nil {
				tel = nil
			}
			h.mu.Lock()
			h.probes[bag] = probe{at: snap.Now, tel: tel}
			h.mu.Unlock()
			return tel
		}
	}
	return snap
}
