package bench

// Shrink-and-continue recovery: instead of restarting the whole job shape
// after a node loss, the survivors run the ULFM sequence — agree on the
// dead, shrink the world, redistribute the field from diskless buddy
// checkpoints — and resume time-stepping mid-run at the degraded rank
// count. The mesh does not shrink with the job: the survivor count is
// rarely cubic, so the same global mesh is re-partitioned onto whatever
// balanced grid internal/partition can factor. PolicyShrink runs this as
// the shrink-only ladder of the elastic loop in migrate.go; this file holds
// the diskless checkpoint store it restores from.

import (
	"fmt"
	"sync"

	"heterohpc/internal/checkpoint"
	"heterohpc/internal/mp"
)

// Application tags of the recovery machinery; the solvers use 1000–2600.
const (
	tagMirror = 9000
	tagRedist = 9100
)

// mirrorSnap is one snapshot copy: the container blob plus where in
// virtual time and the step count it was taken. step -1 means empty.
type mirrorSnap struct {
	step int
	atS  float64
	blob []byte
}

// mirrorStore is the supervisor's model of where the diskless checkpoint
// copies physically live: each origin's own copy resides on the origin's
// node, the mirror on its buddy's node. loseNode discards every copy that
// resided on the lost node, which is exactly what a real node loss does to
// memory-resident checkpoints. Like ckptStore it retains the last two
// snapshots per copy, because ranks killed mid-step can be one step apart.
type mirrorStore struct {
	mu    sync.Mutex
	topo  mp.Topology
	buddy []int // buddy rank per origin, -1 when unprotected
	own   [][2]mirrorSnap
	bud   [][2]mirrorSnap
	// ref holds refugee evacuation copies: when a correlated wave dooms an
	// origin AND its buddy's node, the notice-window evacuation re-homes
	// the origin's line shard on a surviving third rank instead. At most
	// one refugee copy per origin (only the restore line is evacuated).
	ref   []mirrorSnap
	refTo []int  // holder rank of the refugee copy, -1 when none
	lost  []bool // per node
}

func newMirrorStore(topo mp.Topology) *mirrorStore {
	n := topo.NRanks()
	s := &mirrorStore{
		topo:  topo,
		buddy: make([]int, n),
		own:   make([][2]mirrorSnap, n),
		bud:   make([][2]mirrorSnap, n),
		ref:   make([]mirrorSnap, n),
		refTo: make([]int, n),
		lost:  make([]bool, topo.NNodes()),
	}
	for r := 0; r < n; r++ {
		s.buddy[r] = checkpoint.BuddyOf(topo, r)
		s.own[r] = [2]mirrorSnap{{step: -1}, {step: -1}}
		s.bud[r] = [2]mirrorSnap{{step: -1}, {step: -1}}
		s.ref[r] = mirrorSnap{step: -1}
		s.refTo[r] = -1
	}
	return s
}

func (s *mirrorStore) putOwn(origin, step int, atS float64, blob []byte) {
	s.mu.Lock()
	s.own[origin][1] = s.own[origin][0]
	s.own[origin][0] = mirrorSnap{step: step, atS: atS, blob: blob}
	s.mu.Unlock()
}

func (s *mirrorStore) putBuddy(origin, step int, atS float64, blob []byte) {
	s.mu.Lock()
	s.bud[origin][1] = s.bud[origin][0]
	s.bud[origin][0] = mirrorSnap{step: step, atS: atS, blob: blob}
	s.mu.Unlock()
}

// putRefugee records an evacuation copy of origin's line shard re-homed on
// holder — used when origin's buddy node is itself doomed, so the regular
// buddy slot would evaporate with the wave.
func (s *mirrorStore) putRefugee(origin, holder, step int, atS float64, blob []byte) {
	s.mu.Lock()
	s.ref[origin] = mirrorSnap{step: step, atS: atS, blob: blob}
	s.refTo[origin] = holder
	s.mu.Unlock()
}

// refAt returns origin's refugee copy when it captures exactly step.
func (s *mirrorStore) refAt(origin, step int) (mirrorSnap, int, bool) {
	if s.refTo[origin] >= 0 && s.ref[origin].step == step {
		return s.ref[origin], s.refTo[origin], true
	}
	return mirrorSnap{}, -1, false
}

// loseNode discards the copies resident in the lost node's memory: the own
// copies of its ranks, the buddy copies it held for others, and any
// refugee copies re-homed onto it.
func (s *mirrorStore) loseNode(node int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lost[node] = true
	empty := [2]mirrorSnap{{step: -1}, {step: -1}}
	for r := 0; r < s.topo.NRanks(); r++ {
		if s.topo.NodeOf[r] == node {
			s.own[r] = empty
		}
		if b := s.buddy[r]; b >= 0 && s.topo.NodeOf[b] == node {
			s.bud[r] = empty
		}
		if h := s.refTo[r]; h >= 0 && s.topo.NodeOf[h] == node {
			s.ref[r] = mirrorSnap{step: -1}
			s.refTo[r] = -1
		}
	}
}

// snapAt returns the surviving snapshot of origin at exactly step, own
// copy preferred.
func (s *mirrorStore) snapAt(origin, step int) (mirrorSnap, bool) {
	for _, sn := range s.own[origin] {
		if sn.step == step {
			return sn, true
		}
	}
	for _, sn := range s.bud[origin] {
		if sn.step == step {
			return sn, true
		}
	}
	return mirrorSnap{}, false
}

// line computes the restore line after losses: the highest step ≤ cap for
// which EVERY origin still has a surviving copy, and the virtual time the
// slowest origin checkpointed it (the rollback point). Returns (-1, 0)
// when no common step survives — the cold-shrink case.
func (s *mirrorStore) line(capStep int) (int, float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	best := capStep
	for origin := range s.own {
		hi := -1
		for _, sn := range s.own[origin] {
			if sn.step > hi && sn.step <= capStep {
				hi = sn.step
			}
		}
		for _, sn := range s.bud[origin] {
			if sn.step > hi && sn.step <= capStep {
				hi = sn.step
			}
		}
		if s.refTo[origin] >= 0 && s.ref[origin].step > hi && s.ref[origin].step <= capStep {
			hi = s.ref[origin].step
		}
		if hi < best {
			best = hi
		}
	}
	if best < 1 {
		return -1, 0
	}
	var atS float64
	for origin := range s.own {
		sn, ok := s.snapAt(origin, best)
		if !ok {
			if sn, _, ok = s.refAt(origin, best); !ok {
				return -1, 0 // skew beyond the retained window
			}
		}
		if sn.atS > atS {
			atS = sn.atS
		}
	}
	return best, atS
}

// buddyMeter accumulates per-rank virtual time and bytes spent mirroring.
type buddyMeter struct {
	mu        sync.Mutex
	overheadS []float64
	bytes     int64
}

func newBuddyMeter(nranks int) *buddyMeter {
	return &buddyMeter{overheadS: make([]float64, nranks)}
}

func (m *buddyMeter) add(rank int, seconds float64, n int) {
	m.mu.Lock()
	m.overheadS[rank] += seconds
	m.bytes += int64(n)
	m.mu.Unlock()
}

// fold returns the critical-path overhead (max over ranks) and total bytes.
func (m *buddyMeter) fold() (float64, int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var max float64
	for _, s := range m.overheadS {
		if s > max {
			max = s
		}
	}
	return max, m.bytes
}

// maxOf returns the per-rank maximum of a recorded vector.
func maxOf(v []float64) float64 {
	var max float64
	for _, x := range v {
		if x > max {
			max = x
		}
	}
	return max
}

// heldFromMirror assembles the per-rank held-fragment lists for a
// continuation generation. toOld maps each rank of the next world to its
// rank in the pre-loss numbering (-1 for ranks that joined at a Grow and
// hold nothing). Each pre-loss rank contributes its own surviving snapshot
// at the restore line, the buddy copies it holds for origins that lived on
// the dead nodes, and any refugee copies a correlated-wave evacuation
// re-homed onto it.
func heldFromMirror(w *workload, ms *mirrorStore, toOld []int, deadNodes []int, line int) ([][]fragment, error) {
	deadSet := make([]bool, ms.topo.NNodes())
	for _, n := range deadNodes {
		deadSet[n] = true
	}
	held := make([][]fragment, len(toOld))
	for newR, oldR := range toOld {
		if oldR < 0 {
			continue
		}
		var origins []int
		var snaps []mirrorSnap
		if sn, ok := ms.snapAt(oldR, line); ok {
			origins, snaps = append(origins, oldR), append(snaps, sn)
		}
		for _, origin := range checkpoint.Protects(ms.topo, oldR) {
			if !deadSet[ms.topo.NodeOf[origin]] {
				continue // origin alive: it contributes its own copy
			}
			if sn, ok := ms.snapAt(origin, line); ok {
				origins, snaps = append(origins, origin), append(snaps, sn)
			}
		}
		for origin := 0; origin < ms.topo.NRanks(); origin++ {
			if sn, holder, ok := ms.refAt(origin, line); ok && holder == oldR {
				origins, snaps = append(origins, origin), append(snaps, sn)
			}
		}
		for i, sn := range snaps {
			f, err := w.decode(sn.blob)
			if err != nil {
				return nil, fmt.Errorf("bench: corrupt mirrored checkpoint of rank %d: %w", origins[i], err)
			}
			f.rank = origins[i]
			held[newR] = append(held[newR], f)
		}
	}
	return held, nil
}

// shrinkRunState exposes the final generation's internals to the package
// tests (held fragments and the final field for bit-identity comparisons).
type shrinkRunState struct {
	lastHeld [][]fragment
	grid     [3]int
	ranks    int
	app      *rankApp
}

// RecoveryComparison pits the three policies against the identical fault
// plan.
type RecoveryComparison struct {
	Restart, Shrink, Migrate *RecoveryReport
}

// CompareRecovery runs the same seeded fault plan under checkpoint-restart,
// shrink-and-continue and proactive migration, so the reports differ only
// by policy. The restart run draws the plan; the other two replay it
// verbatim.
func CompareRecovery(o FaultOptions) (*RecoveryComparison, error) {
	o = o.withDefaults()
	ro := o
	ro.Policy = PolicyRestart
	restart, err := RunSupervised(ro)
	if err != nil {
		return nil, fmt.Errorf("bench: restart policy: %w", err)
	}
	so := o
	so.Policy = PolicyShrink
	so.Plan = restart.Plan
	shrink, err := RunSupervised(so)
	if err != nil {
		return nil, fmt.Errorf("bench: shrink policy: %w", err)
	}
	mo := o
	mo.Policy = PolicyMigrate
	mo.Plan = restart.Plan
	migrate, err := RunSupervised(mo)
	if err != nil {
		return nil, fmt.Errorf("bench: migrate policy: %w", err)
	}
	return &RecoveryComparison{Restart: restart, Shrink: shrink, Migrate: migrate}, nil
}
