package linalg

// Workspace is a bump-allocator arena for the scratch and result storage
// of the *WS kernel variants (EigHermitianWS, SVDWS, SolveWS,
// NullspaceWS). Memory is carved from chunks that persist across Reset,
// so a workspace that has warmed up to the high-water mark of a workload
// serves every subsequent call without touching the Go allocator.
//
// Ownership rules (see DESIGN.md "Workspace & ownership"):
//
//   - Values returned by *WS functions (matrices, slices) live in the
//     workspace and are valid only until the owner calls Reset. Callers
//     that need longer-lived results must copy out (Matrix.Clone into the
//     heap, append into a fresh slice).
//   - *WS functions never call Reset themselves; only the owner of the
//     workspace decides when previously returned values die.
//   - A Workspace is not safe for concurrent use. Concurrent pipelines
//     use one Workspace per goroutine (see the strategy.Evaluator race
//     test).
//
// The zero value is ready to use.
type Workspace struct {
	cx chunked[complex128]
	fl chunked[float64]
	in chunked[int]
	fr chunked[[]float64]
	mh chunked[Matrix]
	mp chunked[*Matrix]
}

// Reset rewinds the arena. All values previously handed out by this
// workspace are dead after Reset; the backing chunks are retained for
// reuse.
func (w *Workspace) Reset() {
	w.cx.reset()
	w.fl.reset()
	w.in.reset()
	w.fr.reset()
	w.mh.reset()
	w.mp.reset()
}

// chunked is a growable bump allocator over fixed chunks of T. Chunks are
// allocated with geometrically increasing sizes (so one-shot workspaces
// stay small while long-lived ones converge to few large chunks) and are
// never freed; reset just rewinds the cursor.
type chunked[T any] struct {
	chunks   [][]T
	idx, off int
}

func (a *chunked[T]) reset() { a.idx, a.off = 0, 0 }

// take carves a zeroed slice of n elements. base is the first-chunk size,
// maxChunk caps the geometric growth.
func (a *chunked[T]) take(n, base, maxChunk int) []T {
	if n == 0 {
		return nil
	}
	for a.idx < len(a.chunks) {
		ch := a.chunks[a.idx]
		if a.off+n <= len(ch) {
			s := ch[a.off : a.off+n : a.off+n]
			a.off += n
			clear(s) // reused memory carries stale values
			return s
		}
		a.idx++
		a.off = 0
	}
	size := base << len(a.chunks)
	if size > maxChunk {
		size = maxChunk
	}
	if size < n {
		size = n
	}
	a.chunks = append(a.chunks, make([]T, size))
	s := a.chunks[a.idx][:n:n] // fresh chunk is already zeroed
	a.off = n
	return s
}

// Complex carves a zeroed []complex128 of length n from the arena.
func (w *Workspace) Complex(n int) []complex128 { return w.cx.take(n, 256, 16384) }

// Float64s carves a zeroed []float64 of length n from the arena.
func (w *Workspace) Float64s(n int) []float64 { return w.fl.take(n, 128, 8192) }

// Ints carves a zeroed []int of length n from the arena.
func (w *Workspace) Ints(n int) []int { return w.in.take(n, 64, 2048) }

// MatrixPtrs carves a zeroed []*Matrix of length n from the arena; the
// batched precoding paths use it to hold per-subcarrier matrix lists
// without touching the Go allocator.
func (w *Workspace) MatrixPtrs(n int) []*Matrix { return w.mp.take(n, 16, 512) }

// FloatRows carves a rows×cols [][]float64 (each row zeroed) from the arena.
func (w *Workspace) FloatRows(rows, cols int) [][]float64 {
	out := w.fr.take(rows, 64, 2048)
	for i := range out {
		out[i] = w.Float64s(cols)
	}
	return out
}

// Matrix carves a zero-valued rows×cols matrix from the arena.
func (w *Workspace) Matrix(rows, cols int) *Matrix {
	hdr := &w.mh.take(1, 16, 512)[0]
	hdr.Rows, hdr.Cols = rows, cols
	hdr.Data = w.Complex(rows * cols)
	return hdr
}

// Clone carves a copy of m from the arena.
func (w *Workspace) Clone(m *Matrix) *Matrix {
	out := w.Matrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Identity carves the n×n identity matrix from the arena.
func (w *Workspace) Identity(n int) *Matrix {
	out := w.Matrix(n, n)
	for i := 0; i < n; i++ {
		out.Data[i*n+i] = 1
	}
	return out
}

// Mul carves and returns the product a·b. Same arithmetic as Matrix.Mul.
func (w *Workspace) Mul(a, b *Matrix) *Matrix {
	out := w.Matrix(a.Rows, b.Cols)
	mulInto(out, a, b)
	return out
}

// H carves and returns the Hermitian transpose of m.
func (w *Workspace) H(m *Matrix) *Matrix {
	out := w.Matrix(m.Cols, m.Rows)
	hInto(out, m)
	return out
}

// Col carves and returns a copy of column c of m.
func (w *Workspace) Col(m *Matrix, c int) []complex128 {
	out := w.Complex(m.Rows)
	for r := 0; r < m.Rows; r++ {
		out[r] = m.Data[r*m.Cols+c]
	}
	return out
}

// ColsSlice carves a matrix formed from the given column indices of m,
// in order.
func (w *Workspace) ColsSlice(m *Matrix, idx []int) *Matrix {
	out := w.Matrix(m.Rows, len(idx))
	colsSliceInto(out, m, idx)
	return out
}

// SortOrderDesc stably sorts order (in place, no allocation) so that
// key[order[i]] is non-increasing. Insertion sort: for the tiny index sets
// used here it is both fast and — being stable — produces exactly the
// permutation sort.SliceStable would, which the golden-value tests rely on.
func SortOrderDesc(order []int, key []float64) {
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && key[order[j]] > key[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

// SortOrderAsc stably sorts order (in place, no allocation) so that
// key[order[i]] is non-decreasing.
func SortOrderAsc(order []int, key []float64) {
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && key[order[j]] < key[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}
