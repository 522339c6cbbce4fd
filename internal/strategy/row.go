package strategy

import (
	"unsafe"

	"sdcmd/internal/neighbor"
	"sdcmd/internal/vec"
)

// ChunkPairs bounds the pairs one Terms call fills. A row longer than
// that is handed over a chunk at a time. Within a chunk the kernels
// evaluate the radial functions back to back, and a kernel may size
// fixed scratch by it.
const ChunkPairs = 64

// rowBuf is one worker's Terms scratch for one element type.
type rowBuf[T Elem] struct {
	ci, cj [ChunkPairs]T
}

// fill hands terms the next chunk of atom i's row, its first at most
// ChunkPairs pairs, and returns the chunk with the contributions terms
// wrote for it.
func (b *rowBuf[T]) fill(terms Terms[T], i int32, row []int32) (js []int32, ci, cj []T) {
	n := min(len(row), ChunkPairs)
	js, ci, cj = row[:n], b.ci[:n], b.cj[:n]
	terms(i, js, ci, cj)
	return js, ci, cj
}

// rowBufs is a reducer's Terms scratch, one scalar and one vector buffer
// per worker, made with the reducer so that no sweep allocates. A
// reducer runs one sweep at a time and each worker uses only the buffer
// at its tid.
type rowBufs struct {
	scalar []rowBuf[float64]
	vector []rowBuf[vec.Vec3]
}

func newRowBufs(threads int) rowBufs {
	return rowBufs{
		scalar: make([]rowBuf[float64], threads),
		vector: make([]rowBuf[vec.Vec3], threads),
	}
}

// pairRow evaluates atom i's row of list a chunk at a time into buf and
// adds every chunk into out: the direct-write row loop of Figs. 1/2 and
// 7/8. Serial, SDC and SAP share it; they differ only in which rows a
// worker walks and whether out is the shared array or the worker's
// private copy.
func pairRow[T Elem](list *neighbor.List, i int32, out []T, terms Terms[T], buf *rowBuf[T]) {
	row := list.Neighbors(int(i))
	for len(row) > 0 {
		js, ci, cj := buf.fill(terms, i, row)
		row = row[len(js):]
		addRow(out, i, js, ci, cj)
	}
}

// addRow adds one chunk's contributions into out in row order: a
// scalar adds ci[k] to out[i] and cj[k] to out[js[k]]; a vector adds
// the pair force ci[k] to out[i] and subtracts it from out[js[k]]
// (Newton's third law, §II.D.2), one component at a time. Atom i's sum
// stays in registers: a list never pairs an atom with itself, so no
// js[k] aliases it.
func addRow[T Elem](out []T, i int32, js []int32, ci, cj []T) {
	switch o := any(out).(type) {
	case []float64:
		ci, cj := any(ci).([]float64)[:len(js)], any(cj).([]float64)[:len(js)]
		oi := o[i]
		for k, j := range js {
			oi += ci[k]
			o[j] += cj[k]
		}
		o[i] = oi
	case []vec.Vec3:
		ci := any(ci).([]vec.Vec3)[:len(js)]
		oi := &o[i]
		ox, oy, oz := oi[0], oi[1], oi[2]
		for k, j := range js {
			f, oj := &ci[k], &o[j]
			ox += f[0]
			oy += f[1]
			oz += f[2]
			oj[0] -= f[0]
			oj[1] -= f[1]
			oj[2] -= f[2]
		}
		oi[0], oi[1], oi[2] = ox, oy, oz
	}
}

// floats views an element as its float64 components, aliasing *p: one
// for a scalar, three for a vector.
func floats[T Elem](p *T) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(p)), unsafe.Sizeof(*p)/8)
}

// add adds *v into *dst one component at a time.
func add[T Elem](dst, v *T) {
	d := floats(dst)
	for k, x := range floats(v) {
		d[k] += x
	}
}
