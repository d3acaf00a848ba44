package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"

	"heterohpc/internal/checkpoint"
	"heterohpc/internal/fault"
	"heterohpc/internal/fem"
	"heterohpc/internal/krylov"
	"heterohpc/internal/mesh"
	"heterohpc/internal/mp"
	"heterohpc/internal/netmodel"
	"heterohpc/internal/platform"
	"heterohpc/internal/rd"
	"heterohpc/internal/sparse"
)

// reps is how many times the pass repeats each cheap per-rank call, so its
// busy time is not a single clock read.
const reps = 20

// newWorld places ranks on ec2 the way core.Target does (dense, or
// rpn ranks per node), in one placement group.
func newWorld(ranks, rpn int) (*mp.World, error) {
	p, err := platform.Get("ec2")
	if err != nil {
		return nil, err
	}
	if rpn <= 0 {
		rpn = p.CoresPerNode()
	}
	nodes := (ranks + rpn - 1) / rpn
	nodeOf := make([]int, ranks)
	for r := range nodeOf {
		nodeOf[r] = r / rpn
	}
	topo, err := mp.NewTopology(nodeOf, make([]int, nodes))
	if err != nil {
		return nil, err
	}
	scale := p.CommScale
	if scale == 0 {
		scale = 1
	}
	fabric, err := netmodel.NewFabricScaled(p.Net, nodes, scale)
	if err != nil {
		return nil, err
	}
	return mp.NewWorld(topo, fabric, p.Rater)
}

// meshFor is the global mesh of the workload's largest job: the unit cube
// for RD, the Ethier–Steinman box for NS.
func meshFor(workload string, p, n int) (*mesh.Mesh, error) {
	if workload == "steady-ns" {
		return mesh.NewBox(mesh.SymmetricBox, n*p, n*p, n*p)
	}
	return mesh.NewUnitCube(n * p), nil
}

// runLayers times one public call per layer on the workload's largest job,
// each rank in its own world: mesh, FE space and assembly, the sparsity
// pattern, SpMV with halo, ILU(0), CG and BiCGStab, an allreduce, the
// checkpoint codec and buddy mirror, then a crash-driven Shrink and a Grow
// on a second world of the same shape.
func runLayers(workload string, sz sizes, tr *tracer) (*iterResult, error) {
	ranks := sz.Ranks[len(sz.Ranks)-1]
	p, err := mesh.CubeGrid(ranks)
	if err != nil {
		return nil, err
	}
	m, err := meshFor(workload, p, sz.PerRankN)
	if err != nil {
		return nil, err
	}
	w, err := newWorld(ranks, sz.RanksPerNode)
	if err != nil {
		return nil, err
	}
	it := &iterResult{Layer: map[string]float64{}}
	var mu sync.Mutex
	var ckptBytes int64
	runErr := w.Run(func(r *mp.Rank) error {
		n, err := layerRank(r, m, p, tr)
		mu.Lock()
		ckptBytes += n
		mu.Unlock()
		return err
	})
	it.check("layer pass", errText(runErr))
	it.check("shrink/grow", errText(shrinkGrow(ranks, sz.RanksPerNode, tr)))
	it.Layer["checkpoint.bytes"] = float64(ckptBytes)
	return it, nil
}

// layerRank is one rank's share of the layer pass. It returns the size of
// the rank's encoded checkpoint.
func layerRank(r *mp.Rank, m *mesh.Mesh, p int, tr *tracer) (int64, error) {
	const parent = "layers"
	var err error
	tr.onRank(r, "mesh.local", parent, false, func() { _, err = mesh.NewLocalFromBlock(m, p, p, p, r.ID()) })
	if err != nil {
		return 0, err
	}
	var s *fem.Space
	tr.onRank(r, "fem.space", parent, false, func() { s, err = fem.NewSpaceBlock(r, m, p, p, p, 1000) })
	if err != nil {
		return 0, err
	}

	// The RD system operator at t = 1: mass plus stiffness, SPD without
	// boundary elimination, so both CG and BiCGStab converge on it.
	elem := func(e int, out *[8][8]float64) {
		var ke [8][8]float64
		s.El.Mass(28, out, r)
		s.El.Stiffness(1, &ke, r)
		for a := range out {
			for b := range out[a] {
				out[a][b] += ke[a][b]
			}
		}
	}
	var coo, likeCOO sparse.COO
	tr.onRank(r, "fem.assemble", parent, false, func() { s.AssembleMatrix(&coo, elem) })
	likeCOO.Rows = append([]int(nil), coo.Rows...)
	likeCOO.Cols = append([]int(nil), coo.Cols...)
	likeCOO.Vals = append([]float64(nil), coo.Vals...)
	var dm *sparse.DistMatrix
	tr.onRank(r, "sparse.pattern", parent, false, func() { dm, err = sparse.NewDistMatrix(r, s.RowMap, &coo, s.Owner, 1100) })
	if err != nil {
		return 0, err
	}
	tr.onRank(r, "sparse.pattern_like", parent, false, func() { _, err = sparse.NewDistMatrixLike(dm, &likeCOO, s.Owner, 1200) })
	if err != nil {
		return 0, err
	}
	coo.Rows, coo.Cols = nil, nil
	for i := 0; i < reps; i++ {
		tr.onRank(r, "fem.assemble_values", parent, true, func() { s.AssembleMatrixValues(&coo, elem) })
		tr.onRank(r, "sparse.set_values", parent, false, func() { dm.SetValues(&coo) })
	}

	n := dm.NOwned()
	x := make([]float64, dm.NCols())
	y := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = 1 + float64(s.RowMap.Owned[i]%7)
	}
	for i := 0; i < reps; i++ {
		tr.onRank(r, "sparse.spmv_halo", parent, true, func() { dm.Apply(x, b) })
		tr.onRank(r, "sparse.halo", parent, false, func() { dm.Importer().Exchange(x) })
	}
	pc := krylov.NewILU0(dm.Local(), n, r)
	for i := 0; i < reps; i++ {
		tr.onRank(r, "krylov.ilu0_setup", parent, false, func() { err = pc.Setup() })
		if err != nil {
			return 0, err
		}
		tr.onRank(r, "krylov.ilu0_apply", parent, true, func() { pc.Apply(b, y) })
	}
	for i := 0; i < reps; i++ {
		tr.onRank(r, "mp.allreduce", parent, false, func() { r.AllreduceScalar(mp.OpSum, float64(r.ID())) })
	}

	// Solve A·u = b for the known u = x; both solvers must recover it.
	work := &krylov.Workspace{}
	for _, solver := range []struct {
		name  string
		solve func(krylov.System, krylov.Preconditioner, []float64, []float64, krylov.Options) (krylov.Result, error)
	}{{"krylov.cg", krylov.CG}, {"krylov.bicgstab", krylov.BiCGStab}} {
		u := make([]float64, n)
		var res krylov.Result
		tr.onRank(r, solver.name, parent, true, func() {
			res, err = solver.solve(dm, pc, b, u, krylov.Options{Tol: 1e-10, MaxIter: 500, Work: work})
		})
		if err != nil {
			return 0, fmt.Errorf("%s: %w", solver.name, err)
		}
		if !res.Converged {
			return 0, fmt.Errorf("%s: stalled at residual %g after %d iterations", solver.name, res.Residual, res.Iterations)
		}
		for i := 0; i < n; i++ {
			if math.Abs(u[i]-x[i]) > 1e-6*math.Abs(x[i]) {
				return 0, fmt.Errorf("%s: u[%d] = %v, want %v", solver.name, i, u[i], x[i])
			}
		}
	}

	st := rd.State{StepsDone: 1, Time: 1, U1: x[:n], U2: y}
	var blob bytes.Buffer
	tr.onRank(r, "checkpoint.encode", parent, false, func() { err = checkpoint.WriteRD(&blob, st, r.ID(), r.Size(), s.RowMap.Owned) })
	if err != nil {
		return 0, err
	}
	var back rd.State
	tr.onRank(r, "checkpoint.decode", parent, false, func() {
		back, _, _, _, err = checkpoint.ReadRD(bytes.NewReader(blob.Bytes()))
	})
	if err != nil {
		return 0, err
	}
	for i := range st.U1 {
		if back.U1[i] != st.U1[i] || back.U2[i] != st.U2[i] {
			return 0, fmt.Errorf("checkpoint round trip changed dof %d", i)
		}
	}
	tr.onRank(r, "checkpoint.mirror", parent, false, func() { checkpoint.Mirror(r, 1300, blob.Bytes()) })
	return int64(blob.Len()), nil
}

// shrinkGrow kills the last node of a fresh world shaped like the job,
// shrinks the survivors, runs them, and grows a replacement node back in.
func shrinkGrow(ranks, rpn int, tr *tracer) error {
	w, err := newWorld(ranks, rpn)
	if err != nil {
		return err
	}
	nodes := w.Topology().NNodes()
	if nodes < 2 {
		return fmt.Errorf("shrink needs 2 nodes, the job has %d", nodes)
	}
	last := nodes - 1
	if err := fault.Arm(w, []fault.Event{{Kind: fault.KindCrash, Node: last, At: 1e-9}}); err != nil {
		return err
	}
	runErr := w.Run(func(r *mp.Rank) error {
		for i := 0; i < 4; i++ {
			r.AllreduceScalar(mp.OpSum, 1)
		}
		return nil
	})
	if !errors.Is(runErr, mp.ErrRankDead) {
		return fmt.Errorf("armed crash did not kill the world: %v", runErr)
	}
	var sh *mp.Shrink
	tr.do("mp.shrink", "layers", func() { sh, err = w.ShrinkNodes(nil) })
	if err != nil {
		return err
	}
	lost := len(sh.DeadRanks)
	if err := sh.World.Run(func(r *mp.Rank) error {
		r.AllreduceScalar(mp.OpSum, 1)
		return nil
	}); err != nil {
		return fmt.Errorf("survivor world: %w", err)
	}
	var g *mp.Grow
	tr.do("mp.grow", "layers", func() { g, err = sh.World.Grow([]int{lost}, []int{0}, sh.World.MaxVirtualTime()) })
	if err != nil {
		return err
	}
	var size float64
	var once sync.Once
	if err := g.World.Run(func(r *mp.Rank) error {
		v := r.AllreduceScalar(mp.OpSum, 1)
		once.Do(func() { size = v })
		return nil
	}); err != nil {
		return fmt.Errorf("grown world: %w", err)
	}
	if int(size) != ranks {
		return fmt.Errorf("grown world has %v ranks, want %d", size, ranks)
	}
	return nil
}
