package perf

import (
	"math"
	"testing"

	"heterohpc/internal/core"
	"heterohpc/internal/krylov"
	"heterohpc/internal/sparse"
)

// Case is one tracked benchmark: a name that stays stable across commits
// (BENCH.json diffs pair results by it) and a standard benchmark body.
type Case struct {
	Name  string
	Bench func(b *testing.B)
}

// Cases returns the tracked set. Order is the BENCH.json order.
func Cases() []Case {
	return []Case{
		{Name: "rd-iteration", Bench: benchRDIteration},
		{Name: "ns-iteration", Bench: benchNSIteration},
		{Name: "cg-steady-serial", Bench: benchCGSteadySerial},
		{Name: "gmres-arnoldi", Bench: benchGMRESArnoldi},
		{Name: "sparse-pattern", Bench: benchSparsePattern},
		{Name: "ilu0-setup", Bench: benchILU0Setup},
	}
}

// benchRDIteration is one full platform-modelled RD run (world setup + two
// BDF2 steps on 8 ranks) — the unit of every figure, and the case whose
// allocs/op ceiling the CI perf-smoke step enforces. It must stay
// equivalent to BenchmarkRDIteration in bench_test.go.
func benchRDIteration(b *testing.B) {
	tg, err := core.NewTarget("ec2", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app, err := core.WeakRD(8, 6, 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tg.Run(core.JobSpec{Ranks: 8, App: app, SkipSteps: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchNSIteration is the Navier–Stokes equivalent (8 ranks, reduced size:
// ~4 linear solves per step).
func benchNSIteration(b *testing.B) {
	tg, err := core.NewTarget("ec2", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app, err := core.WeakNS(8, 4, 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tg.Run(core.JobSpec{Ranks: 8, App: app, SkipSteps: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCGSteadySerial measures repeated warm-workspace CG solves of a 3-D
// Laplacian — the steady-state solver path with setup excluded; allocs/op
// must be 0.
func benchCGSteadySerial(b *testing.B) {
	const nx = 16
	a := lap3d(nx)
	n := a.NRows
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = math.Sin(float64(i))
	}
	x := make([]float64, n)
	var sys krylov.System = krylov.SerialSystem{A: a}
	pc := krylov.NewILU0(a, n, nil)
	if err := pc.Setup(); err != nil {
		b.Fatal(err)
	}
	opt := krylov.Options{Tol: 1e-8, Work: &krylov.Workspace{}}
	if _, err := krylov.CG(sys, pc, rhs, x, opt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range x {
			x[j] = 0
		}
		if _, err := krylov.CG(sys, pc, rhs, x, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGMRESArnoldi measures warm-workspace restarted GMRES on a
// convection-diffusion operator; allocs/op must be 0 (the per-cycle
// triangular-solve vector lives in the workspace).
func benchGMRESArnoldi(b *testing.B) {
	const n = 400
	a := convdiff1d(n, 0.4)
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = math.Sin(float64(i))
	}
	x := make([]float64, n)
	var sys krylov.System = krylov.SerialSystem{A: a}
	opt := krylov.Options{Tol: 1e-10, Restart: 30, Work: &krylov.Workspace{}}
	if _, err := krylov.GMRES(sys, nil, rhs, x, opt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range x {
			x[j] = 0
		}
		if _, err := krylov.GMRES(sys, nil, rhs, x, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSparsePattern measures the symbolic CSR build alone: NewCSRFromCOO
// on the element-by-element triplets of a Q1 hexahedral mesh, where every
// interior vertex pair appears once per shared element.
func benchSparsePattern(b *testing.B) {
	c := q1Triplets(16)
	n := 17 * 17 * 17
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sparse.NewCSRFromCOO(n, n, c); err != nil {
			b.Fatal(err)
		}
	}
}

// benchILU0Setup measures the ILU(0) factorisation of the 27-point Q1
// operator, the preconditioner setup the RD and NS solvers run every step.
func benchILU0Setup(b *testing.B) {
	c := q1Triplets(16)
	n := 17 * 17 * 17
	a, err := sparse.NewCSRFromCOO(n, n, c)
	if err != nil {
		b.Fatal(err)
	}
	pc := krylov.NewILU0(a, n, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pc.Setup(); err != nil {
			b.Fatal(err)
		}
	}
}

// q1Triplets assembles a diagonally dominant operator element by element
// on an ne³ hexahedral grid of (ne+1)³ vertices: 64 triplets per element,
// 8 on the diagonal.
func q1Triplets(ne int) *sparse.COO {
	nv := ne + 1
	id := func(i, j, k int) int { return (k*nv+j)*nv + i }
	var c sparse.COO
	c.Grow(64 * ne * ne * ne)
	var vs [8]int
	for k := 0; k < ne; k++ {
		for j := 0; j < ne; j++ {
			for i := 0; i < ne; i++ {
				for v := range vs { // bits 0, 1, 2 of v step x, y, z
					vs[v] = id(i+v&1, j+v>>1&1, k+v>>2)
				}
				for _, r := range vs {
					for _, cl := range vs {
						if r == cl {
							c.Add(r, cl, 8)
						} else {
							c.Add(r, cl, -1)
						}
					}
				}
			}
		}
	}
	return &c
}

// lap3d builds the 7-point Laplacian on an nx³ grid (SPD).
func lap3d(nx int) *sparse.CSR {
	var c sparse.COO
	id := func(i, j, k int) int { return (k*nx+j)*nx + i }
	for k := 0; k < nx; k++ {
		for j := 0; j < nx; j++ {
			for i := 0; i < nx; i++ {
				r := id(i, j, k)
				c.Add(r, r, 6)
				if i > 0 {
					c.Add(r, id(i-1, j, k), -1)
				}
				if i < nx-1 {
					c.Add(r, id(i+1, j, k), -1)
				}
				if j > 0 {
					c.Add(r, id(i, j-1, k), -1)
				}
				if j < nx-1 {
					c.Add(r, id(i, j+1, k), -1)
				}
				if k > 0 {
					c.Add(r, id(i, j, k-1), -1)
				}
				if k < nx-1 {
					c.Add(r, id(i, j, k+1), -1)
				}
			}
		}
	}
	m, err := sparse.NewCSRFromCOO(nx*nx*nx, nx*nx*nx, &c)
	if err != nil {
		panic(err)
	}
	return m
}

// convdiff1d builds a nonsymmetric 1-D convection-diffusion matrix.
func convdiff1d(n int, pe float64) *sparse.CSR {
	var c sparse.COO
	for i := 0; i < n; i++ {
		c.Add(i, i, 2+pe/2)
		if i > 0 {
			c.Add(i, i-1, -1-pe)
		}
		if i < n-1 {
			c.Add(i, i+1, -1+pe/2)
		}
	}
	m, err := sparse.NewCSRFromCOO(n, n, &c)
	if err != nil {
		panic(err)
	}
	return m
}
