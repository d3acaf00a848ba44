package bench

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"heterohpc/internal/checkpoint"
	"heterohpc/internal/core"
	"heterohpc/internal/mesh"
	"heterohpc/internal/mp"
	"heterohpc/internal/nse"
	"heterohpc/internal/rd"
	"heterohpc/internal/vclock"
)

// workload adapts one weak-scaling PDE application to the harness. It is
// the only code that tells RD from NS: the weak, strong and placement
// series, the recovery loops, the per-rank wrapper and the replay all work
// through it.
type workload struct {
	name string
	// fields is the unknowns per vertex, as core.MemPerRankGB counts them.
	fields int
	// errKey is the headline error metric of a finished run.
	errKey string
	// newMesh builds the global mesh with n elements per edge.
	newMesh func(n int) (*mesh.Mesh, error)
	// weak and strong build the plain applications (no checkpoint hook).
	weak   func(ranks, perRankN, steps int) (core.App, error)
	strong func(ranks, globalN, steps int) (core.App, error)
	// decode parses a checkpoint container; encode writes f as one.
	decode func(blob []byte) (fragment, error)
	encode func(w io.Writer, f fragment) error
	// redistribute scatters this rank's held fragments onto the grid
	// (collective over the world; a joiner holds none).
	redistribute func(r *mp.Rank, m *mesh.Mesh, grid [3]int, held []fragment) (fragment, error)
	// run executes one rank of a's job, resuming from resume when non-nil
	// and handing every completed step's state to save.
	run func(r *mp.Rank, a *rankApp, resume *fragment, save func(fragment) error) ([]vclock.PhaseTimes, map[string]float64, error)
	// final flattens the field the bit-identity checks compare; norms are
	// the ℓ2 and max-abs norms a replay dump reports.
	final func(f fragment) []float64
	norms func(f fragment) (l2, maxAbs float64)
}

// fragment is one rank's checkpoint: the writer's rank and world width,
// the global ids of the vertices it owns, and the application state (an
// rd.State or nse.State) after steps completed steps at PDE time time.
type fragment struct {
	rank, width int
	owned       []int
	steps       int
	time        float64
	state       any
}

var rdWorkload = &workload{
	name: "rd", fields: 1, errKey: "max_err",
	newMesh: func(n int) (*mesh.Mesh, error) { return mesh.NewUnitCube(n), nil },
	weak:    core.WeakRD,
	strong:  core.StrongRD,
	decode: func(blob []byte) (fragment, error) {
		st, rank, width, owned, err := checkpoint.ReadRD(bytes.NewReader(blob))
		return fragment{rank: rank, width: width, owned: owned, steps: st.StepsDone, time: st.Time, state: st}, err
	},
	encode: func(w io.Writer, f fragment) error {
		return checkpoint.WriteRD(w, f.state.(rd.State), f.rank, f.width, f.owned)
	},
	redistribute: func(r *mp.Rank, m *mesh.Mesh, grid [3]int, held []fragment) (fragment, error) {
		hs := make([]rd.HeldState, len(held))
		for i, f := range held {
			hs[i] = rd.HeldState{Rank: f.rank, OwnedIDs: f.owned, State: f.state.(rd.State)}
		}
		st, owned, err := rd.Redistribute(r, m, grid, hs, tagRedist)
		return fragment{owned: owned, steps: st.StepsDone, time: st.Time, state: st}, err
	},
	run: func(r *mp.Rank, a *rankApp, resume *fragment, save func(fragment) error) ([]vclock.PhaseTimes, map[string]float64, error) {
		cfg := rd.Config{Mesh: a.m, Grid: a.grid, Steps: a.steps}
		if resume != nil {
			st := resume.state.(rd.State)
			cfg.Resume = &st
		}
		cfg.Checkpoint = func(st rd.State) error {
			return save(fragment{steps: st.StepsDone, time: st.Time, state: st})
		}
		return core.RDApp{Cfg: cfg}.Run(r)
	},
	final: func(f fragment) []float64 { return append([]float64(nil), f.state.(rd.State).U1...) },
	norms: func(f fragment) (float64, float64) { return stateNorms(f.state.(rd.State).U1) },
}

var nsWorkload = &workload{
	name: "ns", fields: 4, errKey: "vel_max_err",
	newMesh: func(n int) (*mesh.Mesh, error) { return mesh.NewBox(mesh.SymmetricBox, n, n, n) },
	weak:    core.WeakNS,
	strong:  core.StrongNS,
	decode: func(blob []byte) (fragment, error) {
		st, rank, width, owned, err := checkpoint.ReadNSE(bytes.NewReader(blob))
		return fragment{rank: rank, width: width, owned: owned, steps: st.StepsDone, time: st.Time, state: st}, err
	},
	encode: func(w io.Writer, f fragment) error {
		return checkpoint.WriteNSE(w, f.state.(nse.State), f.rank, f.width, f.owned)
	},
	redistribute: func(r *mp.Rank, m *mesh.Mesh, grid [3]int, held []fragment) (fragment, error) {
		hs := make([]nse.HeldState, len(held))
		for i, f := range held {
			hs[i] = nse.HeldState{Rank: f.rank, OwnedIDs: f.owned, State: f.state.(nse.State)}
		}
		st, owned, err := nse.Redistribute(r, m, grid, hs, tagRedist)
		return fragment{owned: owned, steps: st.StepsDone, time: st.Time, state: st}, err
	},
	run: func(r *mp.Rank, a *rankApp, resume *fragment, save func(fragment) error) ([]vclock.PhaseTimes, map[string]float64, error) {
		cfg := nse.Config{Mesh: a.m, Grid: a.grid, Steps: a.steps}
		if resume != nil {
			st := resume.state.(nse.State)
			cfg.Resume = &st
		}
		cfg.Checkpoint = func(st nse.State) error {
			return save(fragment{steps: st.StepsDone, time: st.Time, state: st})
		}
		return core.NSApp{Cfg: cfg}.Run(r)
	},
	final: func(f fragment) []float64 {
		st := f.state.(nse.State)
		vals := make([]float64, 0, 4*len(st.P))
		for i := range st.P {
			vals = append(vals, st.U1[0][i], st.U1[1][i], st.U1[2][i], st.P[i])
		}
		return vals
	},
	norms: func(f fragment) (float64, float64) {
		u := f.state.(nse.State).U1
		return stateNorms(append(append(append([]float64(nil), u[0]...), u[1]...), u[2]...))
	},
}

// workloadFor maps an application name to its workload.
func workloadFor(app string) (*workload, error) {
	for _, w := range []*workload{rdWorkload, nsWorkload} {
		if w.name == app {
			return w, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown application %q (want rd or ns)", app)
}

// errKeyOf is the headline error metric of app's reports.
func errKeyOf(app string) string {
	if w, err := workloadFor(app); err == nil {
		return w.errKey
	}
	return rdWorkload.errKey
}

// memGB is the per-rank memory of a perRankN³ block.
func (w *workload) memGB(perRankN int) float64 { return core.MemPerRankGB(perRankN, w.fields) }

// rankApp is the per-rank wrapper of every supervised job. A rank
// optionally opens with the survivors' agreement collective, restores its
// state — by redistributing held fragments, or from a compatible
// checkpoint blob in store — and after every step serialises the state
// into store and/or the diskless buddy mirror. With nothing set it is a
// plain run that still records its final field: the comparator shape of
// the bit-identity checks.
type rankApp struct {
	w     *workload
	m     *mesh.Mesh
	grid  [3]int
	steps int
	// store is checkpoint-restart persistence (nil: none).
	store snapStore
	// held are the per-rank fragment lists to redistribute (nil: start
	// from scratch or from store — first generation or cold shrink).
	held [][]fragment
	// suspect is the local suspicion bitmap every rank feeds AgreeDead
	// (nil: no agreement round — first generation or comparator).
	suspect []bool
	// mirror/meter enable diskless buddy checkpointing (nil: unprotected).
	mirror *mirrorStore
	meter  *buddyMeter

	// Per-rank observations, collected under mu for the supervisor.
	mu         sync.Mutex
	agreeS     []float64
	redistS    []float64
	agreedDead []bool
	finalIDs   [][]int
	finalVals  [][]float64
}

// newRankApp builds the weak-scaling job of ranks = p³ processes — the
// global mesh of p·perRankN elements per edge on the p×p×p grid — and
// returns it with the per-rank memory.
func newRankApp(app string, ranks, perRankN, steps int) (*rankApp, float64, error) {
	p, err := mesh.CubeGrid(ranks)
	if err != nil {
		return nil, 0, fmt.Errorf("bench: weak scaling needs cubic rank counts: %w", err)
	}
	w, err := workloadFor(app)
	if err != nil {
		return nil, 0, err
	}
	m, err := w.newMesh(perRankN * p)
	if err != nil {
		return nil, 0, err
	}
	a := &rankApp{w: w, m: m, steps: steps}
	return a.regrid([3]int{p, p, p}, ranks), w.memGB(perRankN), nil
}

// regrid returns a fresh wrapper for the same global mesh and step count
// on ranks processes split over grid.
func (a *rankApp) regrid(grid [3]int, ranks int) *rankApp {
	return &rankApp{
		w: a.w, m: a.m, grid: grid, steps: a.steps,
		agreeS:    make([]float64, ranks),
		redistS:   make([]float64, ranks),
		finalIDs:  make([][]int, ranks),
		finalVals: make([][]float64, ranks),
	}
}

// Name implements core.App.
func (a *rankApp) Name() string { return a.w.name }

// Run implements core.App.
func (a *rankApp) Run(r *mp.Rank) ([]vclock.PhaseTimes, map[string]float64, error) {
	rank, size := r.ID(), r.Size()
	if a.suspect != nil {
		t0 := r.Wtime()
		agreed := r.AgreeDead(a.suspect)
		a.mu.Lock()
		a.agreeS[rank] = r.Wtime() - t0
		if rank == 0 {
			a.agreedDead = agreed
		}
		a.mu.Unlock()
	}
	var resume *fragment
	var owned []int
	if a.held != nil {
		t0 := r.Wtime()
		f, err := a.w.redistribute(r, a.m, a.grid, a.held[rank])
		if err != nil {
			return nil, nil, err
		}
		a.mu.Lock()
		a.redistS[rank] = r.Wtime() - t0
		a.mu.Unlock()
		resume, owned = &f, f.owned
		r.Obs().Checkpoint("ckpt-restore", f.steps, 0)
	} else {
		l, err := mesh.NewLocalFromBlock(a.m, a.grid[0], a.grid[1], a.grid[2], rank)
		if err != nil {
			return nil, nil, err
		}
		owned = l.VertGlobal[:l.NumOwned]
		if a.store != nil {
			if b := a.store.get(rank); b != nil {
				if f, err := a.w.decode(b); err == nil && f.rank == rank && f.width == size && f.steps < a.steps {
					resume = &f
					r.Obs().Checkpoint("ckpt-restore", f.steps, int64(len(b)))
				}
			}
		}
	}
	save := func(f fragment) error {
		if a.store != nil || a.mirror != nil {
			f.rank, f.width, f.owned = rank, size, owned
			var buf bytes.Buffer
			if err := a.w.encode(&buf, f); err != nil {
				return err
			}
			if a.store != nil {
				a.store.put(rank, f.steps, buf.Bytes())
			}
			if a.mirror != nil {
				a.mirror.putOwn(rank, f.steps, r.Wtime(), buf.Bytes())
				t0 := r.Wtime()
				for _, mr := range checkpoint.Mirror(r, tagMirror, buf.Bytes()) {
					a.mirror.putBuddy(mr.Origin, f.steps, r.Wtime(), mr.Blob)
				}
				a.meter.add(rank, r.Wtime()-t0, buf.Len())
			}
		}
		if f.steps == a.steps {
			vals := a.w.final(f)
			a.mu.Lock()
			a.finalIDs[rank], a.finalVals[rank] = owned, vals
			a.mu.Unlock()
		}
		return nil
	}
	return a.w.run(r, a, resume, save)
}
