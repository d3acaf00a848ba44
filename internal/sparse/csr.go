// Package sparse provides the distributed sparse linear algebra that
// Trilinos/Epetra provided in the paper's stack: compressed sparse row
// matrices with a fixed symbolic pattern and fast numeric refill, row
// distribution across ranks, ghost-value importers for matrix-vector
// products, and triplet exporters for finite-element assembly of off-rank
// rows ("matrices and vectors are distributed and need to be updated via a
// message passing interface", §IV-C).
//
// Compute kernels report their operation counts through a Charger so the
// virtual clock can translate real work into platform seconds.
package sparse

import (
	"fmt"
	"slices"
)

// Charger receives operation counts from compute kernels. *mp.Rank
// implements it; serial callers use NopCharger.
type Charger interface {
	ChargeCompute(flops, bytes float64)
}

// NopCharger discards charges (serial / un-modelled execution).
type NopCharger struct{}

// ChargeCompute implements Charger.
func (NopCharger) ChargeCompute(flops, bytes float64) {}

// COO accumulates assembly triplets with global or local indices.
type COO struct {
	Rows, Cols []int
	Vals       []float64
}

// Add appends one triplet.
func (c *COO) Add(row, col int, v float64) {
	c.Rows = append(c.Rows, row)
	c.Cols = append(c.Cols, col)
	c.Vals = append(c.Vals, v)
}

// Grow reserves capacity for n additional triplets, so a sized assembly
// loop appends without incremental reallocation.
func (c *COO) Grow(n int) {
	need := len(c.Rows) + n
	if need <= cap(c.Rows) {
		return
	}
	rows := make([]int, len(c.Rows), need)
	copy(rows, c.Rows)
	c.Rows = rows
	cols := make([]int, len(c.Cols), need)
	copy(cols, c.Cols)
	c.Cols = cols
	vals := make([]float64, len(c.Vals), need)
	copy(vals, c.Vals)
	c.Vals = vals
}

// Len returns the triplet count.
func (c *COO) Len() int { return len(c.Rows) }

// Reset clears the triplets, keeping capacity.
func (c *COO) Reset() {
	c.Rows = c.Rows[:0]
	c.Cols = c.Cols[:0]
	c.Vals = c.Vals[:0]
}

// CSR is a compressed-sparse-row matrix. The symbolic pattern (RowPtr, Col,
// with column indices sorted within each row) is immutable after
// construction; Val may be refilled for matrices whose coefficients change
// every time step, which is how the applications keep the per-step assembly
// cheap without re-sorting triplets.
type CSR struct {
	NRows, NCols int
	RowPtr       []int
	Col          []int
	Val          []float64
}

// NewCSRFromCOO builds a CSR from triplets. Column indices within each row
// come out sorted and unique; duplicate (row, col) triplets are summed in
// triplet order. Symbolic construction runs once per space setup, so
// vcharge's constructor exemption applies; per-step numeric refills go
// through charged paths (fem.AssembleMatrix, MulVec).
func NewCSRFromCOO(nrows, ncols int, c *COO) (*CSR, error) {
	for i := range c.Rows {
		if c.Rows[i] < 0 || c.Rows[i] >= nrows {
			return nil, fmt.Errorf("sparse: row %d out of %d", c.Rows[i], nrows)
		}
		if c.Cols[i] < 0 || c.Cols[i] >= ncols {
			return nil, fmt.Errorf("sparse: col %d out of %d", c.Cols[i], ncols)
		}
	}
	m, slot := buildPattern(nrows, ncols, c.Rows, c.Cols)
	for i, v := range c.Vals {
		m.Val[slot[i]] += v
	}
	return m, nil
}

// buildPattern is the symbolic half of every CSR construction: it returns
// the matrix over the unique (row, col) pairs of the triplet coordinates,
// with sorted columns and zero values, and slot[i], the value index of
// triplet i. A counting sort groups the triplets by row; a column-marker
// array then dedups each row, and only the row's few unique columns are
// sorted. Apart from those short sorts, time and memory are linear in
// nrows, ncols and the triplet count. Indices must already be in range.
func buildPattern(nrows, ncols int, rows, cols []int) (m *CSR, slot []int) {
	// rowPtr[r] counts row r-1's triplets, then holds prefix sums.
	rowPtr := make([]int, nrows+1)
	for _, r := range rows {
		rowPtr[r+1]++
	}
	widest := 0
	for r := 1; r <= nrows; r++ {
		widest = max(widest, rowPtr[r])
		rowPtr[r] += rowPtr[r-1]
	}
	// order lists the triplet indices grouped by row, each row in triplet
	// order. Placing them advances rowPtr[r] to the end of row r.
	order := make([]int, len(rows))
	for i, r := range rows {
		order[rowPtr[r]] = i
		rowPtr[r]++
	}
	// at[c] is column c's value index in the row that last held it. Those
	// indices only grow, so at[c] >= base marks c as already seen in the
	// current row, with no clearing between rows.
	at := make([]int, ncols)
	for c := range at {
		at[c] = -1
	}
	slot = make([]int, len(rows))
	uniq := make([]int, 0, min(widest, ncols))
	nnz, start := 0, 0
	for r := 0; r < nrows; r++ {
		end := rowPtr[r]
		rowPtr[r] = nnz
		base := nnz
		uniq = uniq[:0]
		for _, i := range order[start:end] {
			if c := cols[i]; at[c] < base {
				at[c] = base
				uniq = append(uniq, c)
			}
		}
		slices.Sort(uniq)
		for k, c := range uniq {
			at[c] = base + k
		}
		for _, i := range order[start:end] {
			slot[i] = at[cols[i]]
		}
		// Rows up to this one are consumed, so the compacted columns can
		// reuse order's prefix: base+len(uniq) never passes end.
		nnz += copy(order[base:], uniq)
		start = end
	}
	rowPtr[nrows] = nnz
	m = &CSR{NRows: nrows, NCols: ncols, RowPtr: rowPtr,
		Col: make([]int, nnz), Val: make([]float64, nnz)}
	copy(m.Col, order)
	return m, slot
}

// NNZ returns the stored entry count.
func (m *CSR) NNZ() int { return len(m.Val) }

// ZeroVals resets all stored values, keeping the pattern.
func (m *CSR) ZeroVals() {
	for i := range m.Val {
		m.Val[i] = 0
	}
}

// Slot returns the value index of entry (row, col), or -1 if the pattern
// has no such entry. Columns are sorted per row, so this is a binary search.
func (m *CSR) Slot(row, col int) int {
	lo, hi := m.RowPtr[row], m.RowPtr[row+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case m.Col[mid] < col:
			lo = mid + 1
		case m.Col[mid] > col:
			hi = mid
		default:
			return mid
		}
	}
	return -1
}

// AddAt accumulates v into entry (row, col), which must exist in the
// pattern.
func (m *CSR) AddAt(row, col int, v float64) {
	s := m.Slot(row, col)
	if s < 0 {
		panic(fmt.Sprintf("sparse: entry (%d,%d) not in pattern", row, col))
	}
	m.Val[s] += v
}

// MulVec computes y = A·x and charges 2·nnz flops plus the CSR streaming
// traffic to ch. len(x) must be NCols and len(y) must be NRows.
func (m *CSR) MulVec(x, y []float64, ch Charger) {
	if len(x) != m.NCols || len(y) != m.NRows {
		panic(fmt.Sprintf("sparse: MulVec dims %d,%d for %dx%d matrix",
			len(x), len(y), m.NRows, m.NCols))
	}
	for r := 0; r < m.NRows; r++ {
		var sum float64
		for i := m.RowPtr[r]; i < m.RowPtr[r+1]; i++ {
			sum += m.Val[i] * x[m.Col[i]]
		}
		y[r] = sum
	}
	nnz := float64(m.NNZ())
	// 12 bytes/nnz (8B value + 4B index) + x gathers + y stores.
	ch.ChargeCompute(2*nnz, 20*nnz+8*float64(m.NRows))
}

// Diagonal extracts the matrix diagonal into d (len NRows); missing
// diagonal entries yield 0.
func (m *CSR) Diagonal(d []float64) {
	if len(d) != m.NRows {
		panic("sparse: Diagonal length mismatch")
	}
	for r := range d {
		d[r] = 0
		if s := m.Slot(r, r); s >= 0 {
			d[r] = m.Val[s]
		}
	}
}

// Clone returns a deep copy sharing no storage.
func (m *CSR) Clone() *CSR {
	c := &CSR{
		NRows: m.NRows, NCols: m.NCols,
		RowPtr: append([]int(nil), m.RowPtr...),
		Col:    append([]int(nil), m.Col...),
		Val:    append([]float64(nil), m.Val...),
	}
	return c
}

// Dense expands the matrix to a dense row-major [][]float64 (tests only).
//
//heterolint:allow vcharge test-support expansion, never on a simulated compute path
func (m *CSR) Dense() [][]float64 {
	d := make([][]float64, m.NRows)
	for r := range d {
		d[r] = make([]float64, m.NCols)
		for i := m.RowPtr[r]; i < m.RowPtr[r+1]; i++ {
			d[r][m.Col[i]] += m.Val[i]
		}
	}
	return d
}
