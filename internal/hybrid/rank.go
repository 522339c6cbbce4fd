package hybrid

import (
	"fmt"
	"sort"

	"sdcmd/internal/box"
	"sdcmd/internal/core"
	"sdcmd/internal/force"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/strategy"
	"sdcmd/internal/vec"
)

// rank is one simulated MPI process owning an x-slab of the global box.
// Local atom indexing is owned-first: indices [0, nOwned) are owned,
// [nOwned, nLocal) are ghosts imported from the two x-neighbors.
type rank struct {
	id   int
	comm *Comm
	cfg  Config
	gbox box.Box // global periodic cell

	slabLo, slabHi float64 // owned x-range
	left, right    int     // neighbor rank ids

	// Owned state (parallel arrays, length nOwned).
	gid []int32
	pos []vec.Vec3 // extended to nLocal with ghost positions
	vel []vec.Vec3
	frc []vec.Vec3 // extended to nLocal for ghost force accumulation

	nOwned int

	// Ghost bookkeeping, fixed between rebuilds. sendIdx[s] lists the
	// owned local indices exported to side s (0=left, 1=right);
	// sendShift[s] is the periodic image shift applied to their
	// positions; recvCount[s] is how many ghosts arrived from side s
	// (stored contiguously: left block first).
	sendIdx   [2][]int32
	sendShift [2]vec.Vec3
	recvCount [2]int
	ghostGid  []int32 // global ids of ghosts, aligned with slots

	// Force-evaluation state. The engine's box is the local extended
	// box (x open, y/z periodic), fixed for the rank's lifetime; the
	// reducer is rebuilt with the ghosts.
	eng  *force.Engine
	red  strategy.Reducer
	pool *strategy.Pool

	posAtBuild []vec.Vec3 // owned positions at last rebuild

	embedEnergy float64 // Σ F(ρ_i) over owned atoms, latest evaluation
}

// side constants.
const (
	sideLeft  = 0
	sideRight = 1
)

// sideOf encodes which direction a packet was sent in, piggybacked on
// the tag so R=2 (left == right neighbor) stays unambiguous.
func tagFor(base, side int) int { return base*2 + side }

// reach returns the ghost/import range.
func (r *rank) reach() float64 { return r.cfg.Pot.Cutoff() + r.cfg.Skin }

// ownerOf returns the rank owning a (wrapped) x coordinate.
func (r *rank) ownerOf(x float64) int {
	lx := r.gbox.Lengths()[0]
	o := int((x - r.gbox.Lo[0]) / lx * float64(r.comm.Ranks()))
	if o >= r.comm.Ranks() {
		o = r.comm.Ranks() - 1
	}
	if o < 0 {
		o = 0
	}
	return o
}

// wrapOwned wraps owned positions into the global cell (done only at
// rebuild so ghost image shifts stay consistent between rebuilds).
func (r *rank) wrapOwned() {
	for i := 0; i < r.nOwned; i++ {
		r.pos[i] = r.gbox.Wrap(r.pos[i])
	}
}

// migrate sends owned atoms whose wrapped x now belongs to another rank
// and receives immigrants. All-to-all: one (possibly empty) packet to
// every other rank.
func (r *rank) migrate() error {
	R := r.comm.Ranks()
	out := make(map[int]*packet, R-1)
	keepG := r.gid[:0]
	keepP := make([]vec.Vec3, 0, r.nOwned)
	keepV := make([]vec.Vec3, 0, r.nOwned)
	for i := 0; i < r.nOwned; i++ {
		o := r.ownerOf(r.pos[i][0])
		if o == r.id {
			keepG = append(keepG, r.gid[i])
			keepP = append(keepP, r.pos[i])
			keepV = append(keepV, r.vel[i])
			continue
		}
		p := out[o]
		if p == nil {
			p = &packet{tag: tagMigrate}
			out[o] = p
		}
		p.ids = append(p.ids, r.gid[i])
		p.vecs = append(p.vecs, r.pos[i])
		p.vecs2 = append(p.vecs2, r.vel[i])
	}
	for dst := 0; dst < R; dst++ {
		if dst == r.id {
			continue
		}
		p := out[dst]
		if p == nil {
			p = &packet{tag: tagMigrate}
		}
		r.comm.send(r.id, dst, *p)
	}
	r.gid = keepG
	newP, newV := keepP, keepV
	for src := 0; src < R; src++ {
		if src == r.id {
			continue
		}
		p, err := r.comm.recv(src, r.id, tagMigrate)
		if err != nil {
			return err
		}
		r.gid = append(r.gid, p.ids...)
		newP = append(newP, p.vecs...)
		newV = append(newV, p.vecs2...)
	}
	r.nOwned = len(r.gid)
	r.pos = newP
	r.vel = newV
	// Deterministic local order regardless of arrival order: sort by
	// global id so trajectories are reproducible across runs.
	order := make([]int, r.nOwned)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return r.gid[order[a]] < r.gid[order[b]] })
	sg := make([]int32, r.nOwned)
	sp := make([]vec.Vec3, r.nOwned)
	sv := make([]vec.Vec3, r.nOwned)
	for k, idx := range order {
		sg[k], sp[k], sv[k] = r.gid[idx], r.pos[idx], r.vel[idx]
	}
	r.gid, r.pos, r.vel = sg, sp, sv
	return nil
}

// exchangeGhosts (at rebuild) selects boundary atoms, ships them to the
// two x-neighbors with the right periodic image shift, and installs the
// received ghosts after the owned block.
func (r *rank) exchangeGhosts() error {
	reach := r.reach()
	lx := r.gbox.Lengths()[0]
	r.sendIdx[sideLeft] = r.sendIdx[sideLeft][:0]
	r.sendIdx[sideRight] = r.sendIdx[sideRight][:0]
	r.sendShift[sideLeft] = vec.Zero
	r.sendShift[sideRight] = vec.Zero
	if r.id == 0 {
		r.sendShift[sideLeft] = vec.New(lx, 0, 0) // appears beyond right edge
	}
	if r.id == r.comm.Ranks()-1 {
		r.sendShift[sideRight] = vec.New(-lx, 0, 0)
	}
	for i := 0; i < r.nOwned; i++ {
		x := r.pos[i][0]
		if x < r.slabLo+reach {
			r.sendIdx[sideLeft] = append(r.sendIdx[sideLeft], int32(i))
		}
		if x >= r.slabHi-reach {
			r.sendIdx[sideRight] = append(r.sendIdx[sideRight], int32(i))
		}
	}
	for _, side := range []int{sideLeft, sideRight} {
		dst := r.left
		if side == sideRight {
			dst = r.right
		}
		idx := r.sendIdx[side]
		p := packet{tag: tagFor(tagGhosts, side), ids: make([]int32, len(idx)), vecs: make([]vec.Vec3, len(idx))}
		for k, li := range idx {
			p.ids[k] = r.gid[li]
			p.vecs[k] = r.pos[li].Add(r.sendShift[side])
		}
		r.comm.send(r.id, dst, p)
	}
	// Receive: from the left neighbor comes the packet it sent right,
	// and vice versa.
	fromLeft, err := r.comm.recv(r.left, r.id, tagFor(tagGhosts, sideRight))
	if err != nil {
		return err
	}
	fromRight, err := r.comm.recv(r.right, r.id, tagFor(tagGhosts, sideLeft))
	if err != nil {
		return err
	}
	r.recvCount[sideLeft] = len(fromLeft.ids)
	r.recvCount[sideRight] = len(fromRight.ids)

	nLocal := r.nOwned + len(fromLeft.ids) + len(fromRight.ids)
	r.pos = append(r.pos[:r.nOwned], fromLeft.vecs...)
	r.pos = append(r.pos, fromRight.vecs...)
	r.ghostGid = append(r.ghostGid[:0], fromLeft.ids...)
	r.ghostGid = append(r.ghostGid, fromRight.ids...)
	if cap(r.frc) < nLocal {
		r.frc = make([]vec.Vec3, nLocal)
	} else {
		r.frc = r.frc[:nLocal]
	}
	return nil
}

// refreshGhostPositions (every non-rebuild step) re-sends the current
// positions of the fixed export sets.
func (r *rank) refreshGhostPositions() error {
	for _, side := range []int{sideLeft, sideRight} {
		dst := r.left
		if side == sideRight {
			dst = r.right
		}
		idx := r.sendIdx[side]
		p := packet{tag: tagFor(tagPos, side), vecs: make([]vec.Vec3, len(idx))}
		for k, li := range idx {
			p.vecs[k] = r.pos[li].Add(r.sendShift[side])
		}
		r.comm.send(r.id, dst, p)
	}
	fromLeft, err := r.comm.recv(r.left, r.id, tagFor(tagPos, sideRight))
	if err != nil {
		return err
	}
	fromRight, err := r.comm.recv(r.right, r.id, tagFor(tagPos, sideLeft))
	if err != nil {
		return err
	}
	copy(r.pos[r.nOwned:], fromLeft.vecs)
	copy(r.pos[r.nOwned+len(fromLeft.vecs):], fromRight.vecs)
	return nil
}

// localBox returns the rank's extended box: its slab widened by the
// reach on both x faces (open, so ghosts keep their shifted images),
// periodic in y and z like the global cell. Widening a slab of the
// validated global cell cannot make an edge degenerate.
func (r *rank) localBox() box.Box {
	reach := r.reach()
	lo, hi := r.gbox.Lo, r.gbox.Hi
	lo[0], hi[0] = r.slabLo-reach-1e-9, r.slabHi+reach+1e-9
	return box.Box{Lo: lo, Hi: hi, Periodic: [3]bool{false, true, true}}
}

// rebuildStructures rebuilds the reducer: Serial, or SDC over a
// {Y, Z} decomposition of the owned atoms, over the filtered half
// neighbor list.
func (r *rank) rebuildStructures() error {
	reach := r.reach()
	full, err := neighbor.Builder{Cutoff: r.cfg.Pot.Cutoff(), Skin: r.cfg.Skin, Half: true}.
		Build(r.eng.Box, r.pos)
	if err != nil {
		return err
	}
	var dec *core.Decomposition
	if r.cfg.Strategy == strategy.SDC {
		slab := r.gbox
		slab.Lo[0], slab.Hi[0] = r.slabLo, r.slabHi
		slab.Periodic[0] = false
		if dec, err = core.DecomposeAxes(slab, r.pos[:r.nOwned], []vec.Axis{vec.Y, vec.Z}, reach); err != nil {
			return fmt.Errorf("hybrid: rank %d SDC decomposition: %w", r.id, err)
		}
	}
	r.red, err = strategy.New(strategy.Config{Kind: r.cfg.Strategy, Pool: r.pool, Decomp: dec,
		List: filterCrossRank(full, r.nOwned, r.gid, r.ghostGid)})
	if err != nil {
		return err
	}
	if cap(r.posAtBuild) < r.nOwned {
		r.posAtBuild = make([]vec.Vec3, r.nOwned)
	} else {
		r.posAtBuild = r.posAtBuild[:r.nOwned]
	}
	copy(r.posAtBuild, r.pos[:r.nOwned])
	return nil
}

// filterCrossRank keeps exactly the pairs this rank must compute, in
// one row per owned atom: owned-owned pairs (i < j local, as built),
// and owned-ghost pairs where the owned atom's global id is smaller
// than the ghost's — the tie-break that assigns every cross-rank pair
// to exactly one rank. Ghost slots appear only as neighbors; ghost-ghost
// pairs are dropped (a neighboring rank computes them).
func filterCrossRank(l *neighbor.List, nOwned int, gid, ghostGid []int32) *neighbor.List {
	out := &neighbor.List{
		Half:   true,
		Cutoff: l.Cutoff,
		Skin:   l.Skin,
		Index:  make([]int32, nOwned),
		Len:    make([]int32, nOwned),
	}
	keep := make([]int32, 0, l.Pairs())
	for i := 0; i < nOwned; i++ {
		out.Index[i] = int32(len(keep))
		for _, j := range l.Neighbors(i) {
			if int(j) < nOwned || gid[i] < ghostGid[int(j)-nOwned] {
				keep = append(keep, j)
			}
		}
		out.Len[i] = int32(len(keep)) - out.Index[i]
	}
	out.Neigh = keep
	return out
}

// reverseComm ships ghost-slot scalar accumulations back to their
// owners, which add them into their own slots; the mirror image of
// exchangeGhosts. vals has nLocal entries; add receives (ownedIdx, v).
func (r *rank) reverseCommScalar(vals []float64, tagBase int) error {
	offL := r.nOwned
	offR := r.nOwned + r.recvCount[sideLeft]
	// Return left-block accumulations to the left neighbor and
	// right-block to the right. The receiving side matches them to its
	// sendIdx sets in order.
	pl := packet{tag: tagFor(tagBase, sideLeft), scalars: append([]float64(nil), vals[offL:offR]...)}
	pr := packet{tag: tagFor(tagBase, sideRight), scalars: append([]float64(nil), vals[offR:]...)}
	r.comm.send(r.id, r.left, pl)
	r.comm.send(r.id, r.right, pr)
	// The left neighbor returns accumulations for the atoms this rank
	// exported to it (sendIdx[sideLeft]), and vice versa.
	fromLeft, err := r.comm.recv(r.left, r.id, tagFor(tagBase, sideRight))
	if err != nil {
		return err
	}
	fromRight, err := r.comm.recv(r.right, r.id, tagFor(tagBase, sideLeft))
	if err != nil {
		return err
	}
	for k, li := range r.sendIdx[sideLeft] {
		vals[li] += fromLeft.scalars[k]
	}
	for k, li := range r.sendIdx[sideRight] {
		vals[li] += fromRight.scalars[k]
	}
	return nil
}

// reverseCommVec is reverseCommScalar for vectors (ghost forces).
func (r *rank) reverseCommVec(vals []vec.Vec3, tagBase int) error {
	offL := r.nOwned
	offR := r.nOwned + r.recvCount[sideLeft]
	pl := packet{tag: tagFor(tagBase, sideLeft), vecs: append([]vec.Vec3(nil), vals[offL:offR]...)}
	pr := packet{tag: tagFor(tagBase, sideRight), vecs: append([]vec.Vec3(nil), vals[offR:]...)}
	r.comm.send(r.id, r.left, pl)
	r.comm.send(r.id, r.right, pr)
	fromLeft, err := r.comm.recv(r.left, r.id, tagFor(tagBase, sideRight))
	if err != nil {
		return err
	}
	fromRight, err := r.comm.recv(r.right, r.id, tagFor(tagBase, sideLeft))
	if err != nil {
		return err
	}
	for k, li := range r.sendIdx[sideLeft] {
		vals[li] = vals[li].Add(fromLeft.vecs[k])
	}
	for k, li := range r.sendIdx[sideRight] {
		vals[li] = vals[li].Add(fromRight.vecs[k])
	}
	return nil
}

// forwardCommScalar ships owner values of the exported atoms out to the
// ranks holding them as ghosts (F'(ρ) before the force sweep).
func (r *rank) forwardCommScalar(vals []float64, tagBase int) error {
	for _, side := range []int{sideLeft, sideRight} {
		dst := r.left
		if side == sideRight {
			dst = r.right
		}
		idx := r.sendIdx[side]
		p := packet{tag: tagFor(tagBase, side), scalars: make([]float64, len(idx))}
		for k, li := range idx {
			p.scalars[k] = vals[li]
		}
		r.comm.send(r.id, dst, p)
	}
	fromLeft, err := r.comm.recv(r.left, r.id, tagFor(tagBase, sideRight))
	if err != nil {
		return err
	}
	fromRight, err := r.comm.recv(r.right, r.id, tagFor(tagBase, sideLeft))
	if err != nil {
		return err
	}
	copy(vals[r.nOwned:], fromLeft.scalars)
	copy(vals[r.nOwned+len(fromLeft.scalars):], fromRight.scalars)
	return nil
}

// computeForces runs the distributed three-phase EAM evaluation: the
// engine's phases over the rank's reducer, with the reverse exchange of
// ghost densities, the forward exchange of F'(ρ) to the ghosts, and the
// reverse exchange of ghost forces in between.
func (r *rank) computeForces() error {
	if err := r.eng.Densities(r.red, r.pos); err != nil {
		return err
	}
	if err := r.reverseCommScalar(r.eng.Rho(), tagRho); err != nil {
		return err
	}
	// The reducer's rows are the owned atoms, so this is the owned
	// embedding energy with no ghost fix-up.
	r.embedEnergy = r.eng.Embed(r.red).EmbedEnergy
	if err := r.forwardCommScalar(r.eng.FPrime(), tagFp); err != nil {
		return err
	}
	if err := r.eng.Forces(r.red, r.frc); err != nil {
		return err
	}
	return r.reverseCommVec(r.frc, tagForce)
}

// kineticEnergy of the owned atoms.
func (r *rank) kineticEnergy() float64 {
	ke := 0.0
	for i := 0; i < r.nOwned; i++ {
		ke += r.vel[i].Norm2()
	}
	return 0.5 * r.cfg.Mass * ke
}
