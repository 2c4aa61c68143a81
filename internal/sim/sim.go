// Package sim is a discrete-time cluster simulator used to regenerate the
// paper's evaluation (§5) at its original scale — 32 machines, terabyte
// inputs — which no laptop can run for real. The real Hurricane engine in
// internal/core executes the same mechanisms at laptop scale; the
// simulator reproduces the published numbers' *shape* by modelling the
// resources those mechanisms contend for:
//
//   - per-machine disk bandwidth (330 MB/s RAID, as measured by the paper
//     with fio), shared by reads and writes;
//   - memory-mode bandwidth for inputs that fit in page cache;
//   - per-machine worker slots and per-worker CPU processing rates;
//   - batch-sampling storage utilization ρ(b,m) = 1 − (1 − 1/m)^{bm};
//   - data placement: spread (all disks serve all tasks) or local (a
//     task's input lives on one machine's disk);
//   - Hurricane's cloning policy, run by the engine's controller (ctrl):
//     each overloaded (CPU-bound) worker sends one clone signal per 2-second
//     interval. The overload check is also the storage ceiling: a task whose
//     workers no longer get all the I/O they ask for stops cloning (Fig. 9);
//   - merge work proportional to clone count;
//   - compute-node and master crash events (Fig. 11).
//
// Time advances in fixed steps (default 50 ms of virtual time); each step
// water-fills storage bandwidth across tasks and advances progress at
// min(CPU demand, granted I/O).
package sim

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/ctrl"
)

// Config describes the simulated cluster. All rates are bytes/second, all
// times seconds.
type Config struct {
	// Machines is the cluster size (paper: 32).
	Machines int
	// SlotsPerMachine is the number of concurrent workers per machine.
	SlotsPerMachine int
	// DiskBW is per-machine disk bandwidth (paper: 330 MB/s).
	DiskBW float64
	// DiskEfficiency derates the aggregate disk pool for seeks, GC
	// pauses, and framework overhead (calibrated to 0.80 against the
	// paper's Table 1 320 GB row).
	DiskEfficiency float64
	// MemBW is per-machine effective bandwidth when the input fits in
	// memory (page cache).
	MemBW float64
	// NetBW is per-machine NIC bandwidth (40 GigE = 5 GB/s); with
	// spreading, all I/O crosses the network, so each machine's traffic
	// is capped by min(disk pool share, NetBW).
	NetBW float64
	// MemoryPerMachine is the page-cache capacity that decides memory
	// mode (paper machines: 128 GB).
	MemoryPerMachine float64
	// Startup is the fixed job startup overhead (master + task manager
	// launch; calibrated ≈ 5 s against Table 1's 320 MB row).
	Startup float64
	// CloneInterval is the clone-message cadence (paper: 2 s).
	CloneInterval float64
	// BatchFactor is the batch-sampling factor b (paper default 10).
	BatchFactor int
	// Cloning enables task cloning (false = HurricaneNC).
	Cloning bool
	// SpreadData spreads every bag across all machines' disks; false
	// places each task's data on a single home machine (Fig. 7/8
	// ablation configurations).
	SpreadData bool
	// PerTaskOverhead is fixed scheduling cost per task (drives the
	// small-partition overhead visible in Fig. 6 at 4096 partitions).
	PerTaskOverhead float64
	// GCDesyncMergeFactor multiplies merge work when the per-machine
	// input reaches GCDesyncThreshold: the paper attributes half of the
	// 100 GB/machine skew overhead to desynchronized JVM garbage
	// collection pauses at storage nodes during the clone/merge-heavy
	// endgame (§5.1). Default 1 (merge effectively 2× slower).
	GCDesyncMergeFactor float64
	// GCDesyncThreshold is the per-machine input size (bytes) above
	// which GC desync bites. Default 80 GB.
	GCDesyncThreshold float64
	// Dt is the simulation time step.
	Dt float64
	// MaxTime aborts runaway simulations.
	MaxTime float64
}

// Default returns the paper's cluster configuration.
func Default() Config {
	return Config{
		Machines:         32,
		SlotsPerMachine:  2,
		DiskBW:           330e6,
		DiskEfficiency:   0.80,
		MemBW:            3e9,
		NetBW:            5e9,
		MemoryPerMachine: 100e9, // leave headroom below 128 GB for the heap
		Startup:          5.0,
		CloneInterval:    2.0,
		BatchFactor:      10,
		Cloning:          true,
		SpreadData:       true,
		PerTaskOverhead:  0.03,
		Dt:               0.05,
		MaxTime:          48 * 3600,

		GCDesyncMergeFactor: 1,
		GCDesyncThreshold:   80e9,
	}
}

// Utilization is Eq. 1: the expected storage-node utilization under batch
// sampling with b outstanding requests per compute node and m storage
// nodes: ρ(b,m) = 1 − (1 − 1/m)^{bm}.
func Utilization(b, m int) float64 {
	if b <= 0 || m <= 0 {
		return 0
	}
	return 1 - math.Pow(1-1.0/float64(m), float64(b*m))
}

// overcommitPenalty models the fairness loss the paper observes at very
// large batch factors ("prefetching too many chunks (b=32) is undesirable
// since it risks overwhelming storage nodes and could lead to
// unfairness", Fig. 10): beyond b=16 the effective pool degrades mildly.
func overcommitPenalty(b int) float64 {
	if b <= 16 {
		return 1
	}
	return 1 / (1 + 0.001*float64(b-16)*float64(b-16))
}

// Task describes one simulated task.
type Task struct {
	// Name identifies the task in results.
	Name string
	// Phase groups tasks into sequential phases (barriers between
	// phases, matching the master's schedule-on-seal execution model).
	Phase int
	// InputBytes is the data the task must consume.
	InputBytes float64
	// OutputRatio is output bytes produced per input byte.
	OutputRatio float64
	// CPURate is one worker's processing rate when CPU-bound.
	CPURate float64
	// Mergeable tasks need a merge pass over clone partials when cloned.
	Mergeable bool
	// MergePartialBytes is the size of ONE clone's partial output for
	// merge-cost purposes (e.g. a dense bitset: every clone emits a
	// full-size bitset, so merge I/O grows linearly with clone count).
	// Zero means partials sum to the task's output (concat-like).
	MergePartialBytes float64
	// Cloneable tasks may be cloned (subject to Config.Cloning).
	Cloneable bool
	// Home is the machine index holding the task's data when
	// SpreadData is false.
	Home int
}

// Job is a set of tasks grouped into phases.
type Job struct {
	Tasks []Task
}

// CrashEvent injects a failure at a point in virtual time (Fig. 11).
type CrashEvent struct {
	// Time is when the crash occurs (seconds after job start).
	Time float64
	// Machine is the compute node to crash (-1 = crash the master).
	Machine int
	// MasterOutage is how long a master crash pauses scheduling and
	// cloning (paper: recovery < 1 s).
	MasterOutage float64
}

// Sample is one point of the aggregate-throughput timeline.
type Sample struct {
	Time       float64
	Throughput float64 // total I/O bytes/s across the cluster
	Workers    int     // active workers
}

// Result summarizes a simulation run.
type Result struct {
	// Runtime is the total job wall time (including startup).
	Runtime float64
	// PhaseRuntime maps phase index to its duration.
	PhaseRuntime map[int]float64
	// Timeline samples aggregate throughput once per virtual second.
	Timeline []Sample
	// Clones is the total number of clones created.
	Clones int
	// MaxWorkers records the peak concurrent workers per task.
	MaxWorkers map[string]int
	// MergeTime is total time spent in merge work.
	MergeTime float64
	// Crashed is set if the job could not finish (baseline models use
	// this for OOM kills; Hurricane itself always finishes).
	Crashed bool
	// CrashReason explains a crash.
	CrashReason string
}

// taskRun is the mutable state of one task during simulation.
type taskRun struct {
	t         *Task
	remaining float64
	workers   []int // machine index per worker
	done      bool
	merging   bool
	mergeLeft float64
	peak      int
	cpuBound  bool      // last step: got all the I/O it wanted
	lastClone time.Time // the controller's rate limit reads it
}

// Run simulates the job and returns its result.
func Run(cfg Config, job Job, crashes ...CrashEvent) Result {
	s := newSim(cfg, job, crashes)
	return s.run()
}

type sim struct {
	cfg     Config
	runs    []*taskRun
	phases  []int
	crashes []CrashEvent

	slotsUsed []int // per machine
	dead      []bool
	now       float64
	memMode   bool
	gcDesync  bool // per-machine input large enough for GC desync

	masterDownUntil float64

	res Result
}

func newSim(cfg Config, job Job, crashes []CrashEvent) *sim {
	s := &sim{cfg: cfg, crashes: append([]CrashEvent(nil), crashes...)}
	sort.Slice(s.crashes, func(i, j int) bool { return s.crashes[i].Time < s.crashes[j].Time })
	phaseSet := map[int]bool{}
	var totalInput float64
	for i := range job.Tasks {
		t := &job.Tasks[i]
		s.runs = append(s.runs, &taskRun{t: t, remaining: t.InputBytes})
		phaseSet[t.Phase] = true
		if t.Phase == minPhase(job.Tasks) {
			totalInput += t.InputBytes
		}
	}
	for p := range phaseSet {
		s.phases = append(s.phases, p)
	}
	sort.Ints(s.phases)
	s.slotsUsed = make([]int, cfg.Machines)
	s.dead = make([]bool, cfg.Machines)
	perMachine := totalInput / float64(cfg.Machines)
	s.memMode = perMachine <= cfg.MemoryPerMachine*0.02
	s.gcDesync = cfg.GCDesyncThreshold > 0 && perMachine >= cfg.GCDesyncThreshold
	// Memory mode applies when the per-machine share of the input is
	// small enough to live in page cache alongside intermediates: the
	// paper's 10 MB–1 GB/machine runs execute "from memory"; the
	// 10 GB/machine runs execute "from disk". 2% of 100 GB = 2 GB.
	s.res.PhaseRuntime = make(map[int]float64)
	s.res.MaxWorkers = make(map[string]int)
	return s
}

func minPhase(tasks []Task) int {
	m := math.MaxInt
	for i := range tasks {
		if tasks[i].Phase < m {
			m = tasks[i].Phase
		}
	}
	return m
}

// pool returns the aggregate storage bandwidth available this step in
// spread mode.
func (s *sim) pool() float64 {
	per := s.cfg.DiskBW * s.cfg.DiskEfficiency
	if s.memMode {
		per = s.cfg.MemBW
	}
	rho := Utilization(s.cfg.BatchFactor, s.cfg.Machines) * overcommitPenalty(s.cfg.BatchFactor)
	agg := per * float64(s.cfg.Machines) * rho
	// NIC ceiling: with spreading, effectively all I/O is remote.
	nicCap := s.cfg.NetBW * float64(s.cfg.Machines)
	return math.Min(agg, nicCap)
}

// perMachinePool returns one machine's storage bandwidth in local mode.
func (s *sim) perMachinePool() float64 {
	per := s.cfg.DiskBW * s.cfg.DiskEfficiency
	if s.memMode {
		per = s.cfg.MemBW
	}
	return per
}

func (s *sim) slotAt(machine int) int {
	if machine < 0 || s.dead[machine] {
		return 0
	}
	return s.cfg.SlotsPerMachine
}

// placeWorker finds a machine with a free slot (most-free first) and
// assigns one worker there.
func (s *sim) placeWorker(r *taskRun) bool {
	best, bestFree := -1, 0
	for m := 0; m < s.cfg.Machines; m++ {
		if s.dead[m] {
			continue
		}
		free := s.slotAt(m) - s.slotsUsed[m]
		if free > bestFree {
			best, bestFree = m, free
		}
	}
	if best < 0 {
		return false
	}
	s.slotsUsed[best]++
	r.workers = append(r.workers, best)
	if len(r.workers) > r.peak {
		r.peak = len(r.workers)
	}
	return true
}

func (s *sim) releaseWorkers(r *taskRun) {
	for _, m := range r.workers {
		s.slotsUsed[m]--
	}
	r.workers = nil
}

// ioPerByte is the storage traffic (read + write) per input byte consumed.
func ioPerByte(t *Task) float64 { return 1 + t.OutputRatio }

func (s *sim) run() Result {
	s.now = s.cfg.Startup
	crashIdx := 0
	lastSample := -1.0

	for _, phase := range s.phases {
		phaseStart := s.now
		active := s.phaseTasks(phase)
		// Schedule initial workers: one per task, in descending input
		// order, as slots allow; leftover tasks queue.
		sort.Slice(active, func(i, j int) bool {
			return active[i].remaining > active[j].remaining
		})
		queue := []*taskRun{}
		for _, r := range active {
			if !s.placeWorker(r) {
				queue = append(queue, r)
			}
		}
		s.now += s.cfg.PerTaskOverhead * float64(len(active)) / float64(s.cfg.Machines)

		lastCloneSweep := s.now
		for {
			if s.now > s.cfg.MaxTime {
				s.res.Crashed = true
				s.res.CrashReason = fmt.Sprintf("exceeded max simulation time at phase %d", phase)
				s.res.Runtime = s.now
				return s.res
			}
			// Inject crashes due now.
			for crashIdx < len(s.crashes) && s.crashes[crashIdx].Time <= s.now {
				s.applyCrash(s.crashes[crashIdx], active)
				crashIdx++
			}

			// Start queued tasks as slots free up.
			remainingQueue := queue[:0]
			for _, r := range queue {
				if !s.placeWorker(r) {
					remainingQueue = append(remainingQueue, r)
				}
			}
			queue = remainingQueue

			// Compute rates and advance.
			totalIO, workers := s.step(active)

			// Sample the timeline once per virtual second.
			if s.now-lastSample >= 1.0 {
				s.res.Timeline = append(s.res.Timeline, Sample{
					Time: s.now, Throughput: totalIO, Workers: workers,
				})
				lastSample = s.now
			}

			// Cloning sweep.
			if s.cfg.Cloning && s.now-lastCloneSweep >= s.cfg.CloneInterval && s.now >= s.masterDownUntil {
				s.cloneSweep(active)
				lastCloneSweep = s.now
			}

			s.now += s.cfg.Dt
			if s.phaseDone(active) && len(queue) == 0 {
				break
			}
		}
		s.res.PhaseRuntime[phase] = s.now - phaseStart
	}
	s.res.Runtime = s.now
	for _, r := range s.runs {
		s.res.MaxWorkers[r.t.Name] = r.peak
	}
	return s.res
}

func (s *sim) phaseTasks(phase int) []*taskRun {
	var out []*taskRun
	for _, r := range s.runs {
		if r.t.Phase == phase {
			out = append(out, r)
		}
	}
	return out
}

func (s *sim) phaseDone(active []*taskRun) bool {
	for _, r := range active {
		if !r.done {
			return false
		}
	}
	return true
}

// demandEntry tracks one task's storage demand during a step.
type demandEntry struct {
	r     *taskRun
	cpu   float64 // CPU-limited input consumption rate
	ioDem float64 // I/O bytes/s wanted at CPU speed
	ioGot float64
	perB  float64
}

// step advances every running task by Dt and returns (total I/O rate,
// active worker count).
func (s *sim) step(active []*taskRun) (float64, int) {
	var entries []demandEntry
	workers := 0
	for _, r := range active {
		if r.done || len(r.workers) == 0 {
			continue
		}
		workers += len(r.workers)
		if r.merging {
			// Merge: single-worker pass over clone partials.
			cpu := r.t.CPURate
			entries = append(entries, demandEntry{r: r, cpu: cpu, ioDem: cpu * 2, perB: 2})
			continue
		}
		cpu := float64(len(r.workers)) * r.t.CPURate
		perB := ioPerByte(r.t)
		if !s.cfg.SpreadData && len(r.workers) > 1 {
			// Local placement with clones: the home machine still
			// supplies the entire input, but each clone writes its
			// output to its own machine's disk ("even though the output
			// of clones is placed on local storage, one machine must
			// still supply the entire input", §5.2) — so only reads
			// contend on the home disk.
			perB = 1
		}
		entries = append(entries, demandEntry{r: r, cpu: cpu, ioDem: cpu * perB, perB: perB})
	}
	if len(entries) == 0 {
		return 0, workers
	}

	if s.cfg.SpreadData {
		// Water-fill the global pool proportionally to demand.
		pool := s.pool()
		waterFill(entries, pool)
	} else {
		// Local mode: group demand by home machine and water-fill each
		// machine's disk separately.
		byHome := map[int][]int{}
		for i, e := range entries {
			byHome[e.r.t.Home] = append(byHome[e.r.t.Home], i)
		}
		per := s.perMachinePool()
		for _, idxs := range byHome {
			sub := make([]demandEntry, len(idxs))
			for j, i := range idxs {
				sub[j] = entries[i]
			}
			waterFill(sub, per)
			for j, i := range idxs {
				entries[i].ioGot = sub[j].ioGot
			}
		}
	}

	var totalIO float64
	for _, e := range entries {
		e.r.cpuBound = e.ioGot >= e.ioDem*0.999
		rate := math.Min(e.cpu, e.ioGot/e.perB)
		totalIO += rate * e.perB
		adv := rate * s.cfg.Dt
		if e.r.merging {
			e.r.mergeLeft -= adv
			s.res.MergeTime += s.cfg.Dt
			if e.r.mergeLeft <= 0 {
				e.r.merging = false
				e.r.done = true
				s.releaseWorkers(e.r)
			}
			continue
		}
		e.r.remaining -= adv
		if e.r.remaining <= 0 {
			s.finishTask(e.r)
		}
	}
	return totalIO, workers
}

// waterFill distributes pool bandwidth across entries proportionally to
// their outstanding demand (a task with more workers keeps more requests
// outstanding and receives a proportionally larger share, which is how
// batch-sampled storage behaves), redistributing slack from entries whose
// full demand fits inside their proportional share.
func waterFill(entries []demandEntry, pool float64) {
	unsat := make([]*demandEntry, 0, len(entries))
	for i := range entries {
		entries[i].ioGot = 0
		unsat = append(unsat, &entries[i])
	}
	remaining := pool
	for len(unsat) > 0 && remaining > 1e-6 {
		var totalDem float64
		for _, e := range unsat {
			totalDem += e.ioDem - e.ioGot
		}
		if totalDem <= 1e-9 {
			break
		}
		next := unsat[:0]
		share := remaining
		for _, e := range unsat {
			want := e.ioDem - e.ioGot
			grant := share * want / totalDem
			if grant >= want {
				e.ioGot = e.ioDem
				remaining -= want
			} else {
				e.ioGot += grant
				remaining -= grant
				next = append(next, e)
			}
		}
		if len(next) == len(unsat) {
			break // all proportional shares granted; no slack to move
		}
		unsat = next
	}
}

// finishTask completes a task's main work, transitioning to merge if the
// task was cloned and is mergeable.
func (s *sim) finishTask(r *taskRun) {
	k := len(r.workers)
	if r.t.Mergeable && k > 1 {
		partial := r.t.MergePartialBytes
		if partial <= 0 {
			partial = r.t.InputBytes * r.t.OutputRatio / float64(k)
		}
		// The merge reads every partial and writes the reconciled output.
		r.mergeLeft = partial * float64(k)
		if s.gcDesync {
			r.mergeLeft *= 1 + s.cfg.GCDesyncMergeFactor
		}
		r.merging = true
		// Merge runs on a single worker.
		s.releaseWorkers(r)
		s.slotsUsed[0]++ // merge placement: any machine; approximate with 0
		r.workers = []int{0}
		return
	}
	r.done = true
	s.releaseWorkers(r)
}

// cloneSweep runs the paper's cloning policy (§4.2) through the engine's
// controller: the sim detects overload, ctrl.ClonePolicy and ctrl.Arbitrate
// decide. Each worker of an overloaded task sends one signal, so a task at
// most doubles per sweep, within the free slots. Overloaded means CPU-bound:
// a storage-bound task stops cloning ("storage, and not the CPU, becomes the
// bottleneck", Fig. 9; Eq. 2 at the CPU rate adds nothing to that). With
// local placement a lone worker bound on its *home* disk still clones: the
// clones' writes move off that disk (configuration 3's ~25% in Phase 1).
// Now rounds up to the millisecond and a clone's time down, so float drift
// never trips the rate limit one CloneInterval later.
func (s *sim) cloneSweep(active []*taskRun) {
	now := time.UnixMilli(int64(math.Ceil(s.now * 1e3)))
	snap := &ctrl.Snapshot{Now: now, Tasks: map[string]*ctrl.TaskTel{}}
	for m, used := range s.slotsUsed {
		snap.TotalSlots += s.slotAt(m)
		snap.FreeSlots += s.slotAt(m) - used
	}
	runs := map[string]*taskRun{} // by index in active: names need not be unique
	for i, r := range active {
		if r.done {
			continue
		}
		id := strconv.Itoa(i)
		runs[id] = r
		snap.Tasks[id] = &ctrl.TaskTel{Name: id, Scheduled: true, Workers: len(r.workers),
			LastClone: r.lastClone, NoClone: !r.t.Cloneable, Inputs: []string{id}}
		if r.cpuBound || (!s.cfg.SpreadData && len(r.workers) < 2) {
			for range r.workers {
				snap.Overloads = append(snap.Overloads, ctrl.Overload{Task: id, Merge: r.merging})
			}
		}
	}
	snap.SampleBag = func(bag string) *ctrl.BagTel {
		return &ctrl.BagTel{RemainingBytes: int64(math.Ceil(runs[bag].remaining))}
	}
	policy := ctrl.ClonePolicy{CloneInterval: time.Duration(s.cfg.CloneInterval * float64(time.Second))}
	for _, a := range ctrl.Arbitrate(snap, policy.Evaluate(snap)) {
		if c, ok := a.(ctrl.CloneTask); ok && s.placeWorker(runs[c.Task]) {
			runs[c.Task].lastClone = time.UnixMilli(int64(math.Floor(s.now * 1e3)))
			s.res.Clones++
		}
	}
}

// applyCrash handles a crash event.
func (s *sim) applyCrash(ev CrashEvent, active []*taskRun) {
	if ev.Machine < 0 {
		// Master crash: scheduling and cloning pause for the outage;
		// running workers continue (§4.4).
		outage := ev.MasterOutage
		if outage <= 0 {
			outage = 1.0
		}
		s.masterDownUntil = s.now + outage
		return
	}
	s.dead[ev.Machine] = true
	// Compute-node crash: every task with a worker on that machine is
	// restarted from scratch (rewind inputs, discard outputs); its
	// clones are killed.
	for _, r := range active {
		if r.done {
			continue
		}
		hit := false
		for _, m := range r.workers {
			if m == ev.Machine {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		s.releaseWorkers(r)
		r.remaining = r.t.InputBytes
		r.merging = false
		r.mergeLeft = 0
		// Reschedule one worker immediately (the ready bag is polled
		// continuously).
		s.placeWorker(r)
	}
}
