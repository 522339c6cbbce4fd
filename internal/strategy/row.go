package strategy

import (
	"unsafe"

	"sdcmd/internal/neighbor"
)

// pairRow visits every pair in atom i's row of list, handing visit the
// slots of out for atom i and for each neighbor: the direct-write row
// loop of Figs. 1/2 and 7/8. Serial, SDC and SAP share it; they differ
// only in which rows a worker walks and whether out is the shared
// array or the worker's private copy.
func pairRow[T Elem](list *neighbor.List, i int32, out []T, visit Visit[T]) {
	oi := &out[i]
	for _, j := range list.Neighbors(int(i)) {
		visit(i, j, oi, &out[j])
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
