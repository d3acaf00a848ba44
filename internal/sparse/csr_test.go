package sparse

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"heterohpc/internal/stats"
)

func TestCSRFromCOOBasic(t *testing.T) {
	var c COO
	c.Add(0, 0, 2)
	c.Add(1, 1, 3)
	c.Add(0, 1, 1)
	c.Add(0, 0, 4) // duplicate, must sum
	m, err := NewCSRFromCOO(2, 2, &c)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", m.NNZ())
	}
	d := m.Dense()
	want := [][]float64{{6, 1}, {0, 3}}
	for i := range want {
		for j := range want[i] {
			if d[i][j] != want[i][j] {
				t.Fatalf("entry (%d,%d) = %v, want %v", i, j, d[i][j], want[i][j])
			}
		}
	}
}

func TestCSRFromCOOEmptyRows(t *testing.T) {
	var c COO
	c.Add(3, 0, 1)
	m, err := NewCSRFromCOO(5, 2, &c)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		n := m.RowPtr[r+1] - m.RowPtr[r]
		want := 0
		if r == 3 {
			want = 1
		}
		if n != want {
			t.Fatalf("row %d has %d entries", r, n)
		}
	}
}

func TestCSRFromCOOValidation(t *testing.T) {
	var c COO
	c.Add(5, 0, 1)
	if _, err := NewCSRFromCOO(2, 2, &c); err == nil {
		t.Error("out-of-range row accepted")
	}
	c.Reset()
	c.Add(0, 5, 1)
	if _, err := NewCSRFromCOO(2, 2, &c); err == nil {
		t.Error("out-of-range col accepted")
	}
}

func TestCOOReset(t *testing.T) {
	var c COO
	c.Add(0, 0, 1)
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestSlotAndAddAt(t *testing.T) {
	var c COO
	c.Add(0, 2, 1)
	c.Add(0, 0, 1)
	c.Add(1, 1, 1)
	m, _ := NewCSRFromCOO(2, 3, &c)
	if s := m.Slot(0, 2); s < 0 || m.Val[s] != 1 {
		t.Fatalf("Slot(0,2) = %d", s)
	}
	if s := m.Slot(0, 1); s != -1 {
		t.Fatalf("missing entry returned slot %d", s)
	}
	m.AddAt(0, 0, 5)
	if d := m.Dense(); d[0][0] != 6 {
		t.Fatalf("AddAt result %v", d[0][0])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddAt outside pattern did not panic")
		}
	}()
	m.AddAt(1, 0, 1)
}

func TestZeroValsKeepsPattern(t *testing.T) {
	var c COO
	c.Add(0, 0, 7)
	m, _ := NewCSRFromCOO(1, 1, &c)
	m.ZeroVals()
	if m.NNZ() != 1 || m.Val[0] != 0 {
		t.Fatalf("ZeroVals wrong: nnz=%d val=%v", m.NNZ(), m.Val)
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := stats.NewRNG(17)
	for trial := 0; trial < 20; trial++ {
		nr := rng.Intn(8) + 1
		nc := rng.Intn(8) + 1
		var c COO
		for k := 0; k < rng.Intn(30); k++ {
			c.Add(rng.Intn(nr), rng.Intn(nc), rng.Range(-2, 2))
		}
		m, err := NewCSRFromCOO(nr, nc, &c)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, nc)
		for i := range x {
			x[i] = rng.Range(-1, 1)
		}
		y := make([]float64, nr)
		m.MulVec(x, y, NopCharger{})
		d := m.Dense()
		for r := 0; r < nr; r++ {
			var want float64
			for j := 0; j < nc; j++ {
				want += d[r][j] * x[j]
			}
			if math.Abs(y[r]-want) > 1e-12 {
				t.Fatalf("trial %d row %d: %v vs %v", trial, r, y[r], want)
			}
		}
	}
}

func TestMulVecDimPanic(t *testing.T) {
	var c COO
	c.Add(0, 0, 1)
	m, _ := NewCSRFromCOO(1, 1, &c)
	defer func() {
		if recover() == nil {
			t.Fatal("dim mismatch did not panic")
		}
	}()
	m.MulVec(make([]float64, 2), make([]float64, 1), NopCharger{})
}

func TestDiagonal(t *testing.T) {
	var c COO
	c.Add(0, 0, 4)
	c.Add(1, 0, 2)
	m, _ := NewCSRFromCOO(2, 2, &c)
	d := make([]float64, 2)
	m.Diagonal(d)
	if d[0] != 4 || d[1] != 0 {
		t.Fatalf("diagonal %v", d)
	}
}

func TestClone(t *testing.T) {
	var c COO
	c.Add(0, 0, 1)
	m, _ := NewCSRFromCOO(1, 1, &c)
	cl := m.Clone()
	cl.Val[0] = 9
	if m.Val[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

type chargeRecorder struct{ flops, bytes float64 }

func (c *chargeRecorder) ChargeCompute(f, b float64) { c.flops += f; c.bytes += b }

func TestMulVecCharges(t *testing.T) {
	var c COO
	c.Add(0, 0, 1)
	c.Add(0, 1, 1)
	m, _ := NewCSRFromCOO(1, 2, &c)
	rec := &chargeRecorder{}
	m.MulVec([]float64{1, 2}, make([]float64, 1), rec)
	if rec.flops != 4 {
		t.Fatalf("charged %v flops, want 4", rec.flops)
	}
	if rec.bytes <= 0 {
		t.Fatal("charged no bytes")
	}
}

// Property: pattern column indices are sorted and RowPtr is monotone for
// arbitrary triplet sets.
func TestCSRInvariantsProperty(t *testing.T) {
	f := func(seed uint64, nTripRaw uint8) bool {
		rng := stats.NewRNG(seed)
		const nr, nc = 6, 7
		var c COO
		for k := 0; k < int(nTripRaw); k++ {
			c.Add(rng.Intn(nr), rng.Intn(nc), rng.Range(-1, 1))
		}
		m, err := NewCSRFromCOO(nr, nc, &c)
		if err != nil {
			return false
		}
		if m.RowPtr[0] != 0 || m.RowPtr[nr] != m.NNZ() {
			return false
		}
		for r := 0; r < nr; r++ {
			if m.RowPtr[r+1] < m.RowPtr[r] {
				return false
			}
			for i := m.RowPtr[r] + 1; i < m.RowPtr[r+1]; i++ {
				if m.Col[i] <= m.Col[i-1] {
					return false // unsorted or duplicate column
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// sortedPattern is the reference symbolic build: sort the triplet indices
// by (row, col) with sort.Slice and keep the first of each run of equal
// pairs. It is the construction NewCSRFromCOO used before the counting
// build, kept as the oracle the counting build must reproduce.
func sortedPattern(nrows int, c *COO) (rowPtr, col []int) {
	idx := make([]int, c.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if c.Rows[ia] != c.Rows[ib] {
			return c.Rows[ia] < c.Rows[ib]
		}
		return c.Cols[ia] < c.Cols[ib]
	})
	rowPtr = make([]int, nrows+1)
	prevR, prevC := -1, -1
	for _, i := range idx {
		r, cl := c.Rows[i], c.Cols[i]
		if r == prevR && cl == prevC {
			continue
		}
		prevR, prevC = r, cl
		col = append(col, cl)
		rowPtr[r+1] = len(col)
	}
	for r := 1; r <= nrows; r++ {
		if rowPtr[r] < rowPtr[r-1] {
			rowPtr[r] = rowPtr[r-1]
		}
	}
	return rowPtr, col
}

// checkPattern compares the counting build of c against the sorted oracle
// and checks that every triplet's slot holds its own (row, col) and that
// values are summed in triplet order.
func checkPattern(t *testing.T, nrows, ncols int, c *COO) {
	t.Helper()
	m, err := NewCSRFromCOO(nrows, ncols, c)
	if err != nil {
		t.Fatal(err)
	}
	wantPtr, wantCol := sortedPattern(nrows, c)
	if !intsEqual(m.RowPtr, wantPtr) || !intsEqual(m.Col, wantCol) {
		t.Fatalf("%dx%d pattern of %d triplets: got RowPtr %v Col %v, want %v %v",
			nrows, ncols, c.Len(), m.RowPtr, m.Col, wantPtr, wantCol)
	}
	if len(m.Col) != cap(m.Col) || len(m.Val) != len(m.Col) || len(m.Val) != cap(m.Val) {
		t.Fatalf("Col/Val not sized to nnz: len %d/%d cap %d/%d",
			len(m.Col), len(m.Val), cap(m.Col), cap(m.Val))
	}
	_, slot := buildPattern(nrows, ncols, c.Rows, c.Cols)
	want := make([]float64, m.NNZ())
	for i := range c.Rows {
		s := slot[i]
		if s < m.RowPtr[c.Rows[i]] || s >= m.RowPtr[c.Rows[i]+1] || m.Col[s] != c.Cols[i] {
			t.Fatalf("triplet %d (%d,%d) has slot %d", i, c.Rows[i], c.Cols[i], s)
		}
		if s != m.Slot(c.Rows[i], c.Cols[i]) {
			t.Fatalf("triplet %d slot %d, Slot says %d", i, s, m.Slot(c.Rows[i], c.Cols[i]))
		}
		want[s] += c.Vals[i]
	}
	for s := range want {
		if math.Float64bits(m.Val[s]) != math.Float64bits(want[s]) {
			t.Fatalf("value %d = %v, want triplet-order sum %v", s, m.Val[s], want[s])
		}
	}
}

// TestCSRPatternMatchesSortedOracle drives seeded random COOs with heavy
// duplication, empty rows and wide column spaces through the counting
// build and the sorted oracle.
func TestCSRPatternMatchesSortedOracle(t *testing.T) {
	rng := stats.NewRNG(41)
	for trial := 0; trial < 300; trial++ {
		nr := rng.Intn(12) + 1
		nc := rng.Intn(12) + 1
		if trial%3 == 0 {
			nc += nr + rng.Intn(40) // ncols > nrows, like owned + ghost columns
		}
		var c COO
		for k := rng.Intn(4 * nr * 3); k > 0; k-- {
			r := rng.Intn(nr)
			if r%3 == 1 {
				continue // keep some rows empty
			}
			c.Add(r, rng.Intn(nc), rng.Range(-2, 2))
			if rng.Intn(3) == 0 && c.Len() > 1 {
				j := rng.Intn(c.Len() - 1)
				c.Add(c.Rows[j], c.Cols[j], rng.Range(-2, 2)) // duplicate
			}
		}
		checkPattern(t, nr, nc, &c)
	}
}

// FuzzCSRFromCOO decodes the input bytes into a triplet list and checks
// the counting build against the sorted oracle.
func FuzzCSRFromCOO(f *testing.F) {
	f.Add(uint8(3), uint8(4), []byte{0, 1, 2, 0, 1, 2, 0, 0, 2, 3})
	f.Add(uint8(1), uint8(1), []byte{})
	f.Add(uint8(5), uint8(40), []byte{4, 39, 4, 0, 4, 39, 0, 20, 0, 20})
	f.Fuzz(func(t *testing.T, nr, nc uint8, data []byte) {
		nrows, ncols := int(nr)%32+1, int(nc)%64+1
		var c COO
		for k := 0; k+1 < len(data); k += 2 {
			c.Add(int(data[k])%nrows, int(data[k+1])%ncols, float64(k%7)-3.5)
		}
		checkPattern(t, nrows, ncols, &c)
	})
}

func TestVecOps(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(3, 2, x, y, NopCharger{})
	if y[0] != 12 || y[2] != 36 {
		t.Fatalf("axpy %v", y)
	}
	Scale(3, 0.5, y, NopCharger{})
	if y[0] != 6 {
		t.Fatalf("scale %v", y)
	}
	dst := make([]float64, 3)
	CopyN(3, dst, x, NopCharger{})
	if dst[1] != 2 {
		t.Fatalf("copy %v", dst)
	}
	if d := DotLocal(3, x, x, NopCharger{}); d != 14 {
		t.Fatalf("dot %v", d)
	}
	if n := Norm2Local(3, x, NopCharger{}); math.Abs(n-math.Sqrt(14)) > 1e-14 {
		t.Fatalf("norm %v", n)
	}
	// Prefix-only application.
	z := []float64{1, 1}
	Axpy(1, 1, []float64{5, 5}, z, NopCharger{})
	if z[1] != 1 {
		t.Fatal("Axpy touched beyond prefix")
	}
}

func BenchmarkMulVec(b *testing.B) {
	// A 27-point-stencil-like matrix of 10k rows.
	rng := stats.NewRNG(3)
	const n = 10000
	var c COO
	for r := 0; r < n; r++ {
		for k := 0; k < 27; k++ {
			c.Add(r, (r+k*37)%n, rng.Range(-1, 1))
		}
	}
	m, _ := NewCSRFromCOO(n, n, &c)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(x, y, NopCharger{})
	}
}
