package force

import (
	"fmt"
	"math"

	"sdcmd/internal/box"
	"sdcmd/internal/potential"
	"sdcmd/internal/strategy"
	"sdcmd/internal/vec"
)

// NewAlloyEngine builds an engine for a two-species system: the same
// three EAM phases with species-resolved pair, density and embedding
// terms, whose radial parts its kernels call statically. The SDC
// coloring argument is purely geometric and species-blind, so every
// strategy.Reducer applies unchanged. species[i] is atom i's species
// index, validated against the potential; every evaluation needs one
// position per species entry.
func NewAlloyEngine(pot *potential.BinaryAlloy, bx box.Box, species []int32) (*Engine, error) {
	if pot == nil {
		return nil, fmt.Errorf("force: nil alloy potential")
	}
	if !(pot.Cutoff() > 0) {
		return nil, fmt.Errorf("force: alloy cutoff %g must be positive", pot.Cutoff())
	}
	ns := pot.Species()
	for i, s := range species {
		if s < 0 || int(s) >= ns {
			return nil, fmt.Errorf("force: atom %d has species %d, potential knows %d", i, s, ns)
		}
	}
	e := &Engine{Box: bx, alloy: pot, species: species, cutoff: pot.Cutoff(), terms: alloyTerms}
	for si := range e.rad.pair {
		e.rad.dens[si] = pot.ExpDensity(si)
		for sj := range e.rad.pair[si] {
			e.rad.pair[si][sj] = pot.Morse(si, sj)
		}
	}
	e.rad.smooth = pot.Smoother()
	return e, nil
}

var alloyTerms = terms{
	density: (*Engine).alloyDensityTerms,
	embed:   (*Engine).alloyEmbedTerm,
	force:   (*Engine).alloyForceTerms,
	pair:    (*Engine).alloyPairTerms,
}

// alloyDensityTerms is the species-resolved phase-1 kernel: ρ_i gains
// the density donated by j's species and vice versa
// (direction-consistent, as the strategy contract requires). Every pair
// evaluates the density of both species at r and gives each atom its
// partner's, the bits of evaluating the two donations. The exponents,
// species 0's then 1's, go through a stack array sized by the chunk
// bound: ci holds r until the last loop.
func (e *Engine) alloyDensityTerms() strategy.Terms[float64] {
	rad, sp, cut := &e.rad, e.species, e.cutoff
	d0, d1 := rad.dens[0], rad.dens[1]
	return func(i int32, js []int32, ci, cj []float64) {
		n := len(js)
		ci, cj = ci[:n], cj[:n]
		e.dists(i, js, ci)
		var buf [2 * strategy.ChunkPairs]float64
		x := buf[:2*n]
		x0, x1 := x[:n], x[n:][:n]
		for k, r := range ci {
			x0[k], x1[k] = d0.Arg(r), d1.Arg(r)
		}
		potential.Exps(x)
		var phi [2]float64 // each species' density at r
		fromI := &phi[sp[i]]
		for k, j := range js {
			r := ci[k]
			if r <= 0 || r >= cut {
				ci[k], cj[k] = 0, 0
				continue
			}
			phi[0], _ = d0.FromExp(x0[k])
			phi[1], _ = d1.FromExp(x1[k])
			s, _ := rad.smooth.Eval(r)
			ci[k], cj[k] = phi[sp[j]]*s, *fromI*s
		}
	}
}

// alloyEmbedTerm is the per-species phase-2 term.
func (e *Engine) alloyEmbedTerm(i int, rho float64) (float64, float64) {
	return e.alloy.EmbedOf(int(e.species[i]), rho)
}

// alloyForceTerms is the species-resolved phase-3 kernel. The embedding
// coupling pairs F'(ρ_i) with the *partner's* density derivative:
// eq. (2) generalized to species. Like alloyDensityTerms, it evaluates
// both donations of every pair and keeps each partner's species in a
// stack array for the last loop. cj's floats hold the pair exponents,
// j's and then i's density exponents, a plane of len(js) each, and the
// last loop takes r from the displacement again, with the same bits.
func (e *Engine) alloyForceTerms() strategy.Terms[vec.Vec3] {
	fp := e.fp
	rad, sp, cut := &e.rad, e.species, e.cutoff
	return func(i int32, js []int32, ci, cj []vec.Vec3) {
		n := len(js)
		ci = ci[:n]
		e.disps(i, js, ci)
		x, xv, xj, xi := planes(cj[:n])
		var sbuf [strategy.ChunkPairs]int32
		sjs := sbuf[:n]
		si, fpi := sp[i], fp[i]
		pair, di := &rad.pair[si], rad.dens[si]
		for k, j := range js {
			d := &ci[k]
			r := math.Sqrt(d[0]*d[0] + d[1]*d[1] + d[2]*d[2])
			sj := sp[j]
			xv[k], xj[k], xi[k], sjs[k] = pair[sj].Arg(r), rad.dens[sj].Arg(r), di.Arg(r), sj
		}
		potential.Exps(x)
		for k, sj := range sjs {
			d := &ci[k]
			r := math.Sqrt(d[0]*d[0] + d[1]*d[1] + d[2]*d[2])
			if r <= 0 || r >= cut {
				*d = vec.Vec3{}
				continue
			}
			v, dv := pair[sj].FromExp(xv[k])
			phiJ, dphiJ := rad.dens[sj].FromExp(xj[k]) // j's donation to i
			phiI, dphiI := di.FromExp(xi[k])           // i's donation to j
			s, ds := rad.smooth.Eval(r)
			coeff := slope(v, dv, s, ds) + fpi*slope(phiJ, dphiJ, s, ds) + fp[js[k]]*slope(phiI, dphiI, s, ds)
			f := -coeff / r
			d[0], d[1], d[2] = f*d[0], f*d[1], f*d[2]
		}
	}
}

// alloyPairTerms is the species-resolved pair-energy kernel.
func (e *Engine) alloyPairTerms() strategy.Terms[float64] {
	rad, sp, cut := &e.rad, e.species, e.cutoff
	return func(i int32, js []int32, ci, cj []float64) {
		ci, cj = ci[:len(js)], cj[:len(js)]
		e.dists(i, js, ci)
		si := sp[i]
		for k, j := range js {
			r := ci[k]
			if r <= 0 || r >= cut {
				ci[k], cj[k] = 0, 0
				continue
			}
			v, _ := rad.pair[si][sp[j]].Eval(r)
			s, _ := rad.smooth.Eval(r)
			ci[k], cj[k] = v*s/2, v*s/2
		}
	}
}

// AlloyReference computes alloy energies and forces by direct O(N²)
// summation — the correctness oracle for NewAlloyEngine's engine.
func AlloyReference(pot *potential.BinaryAlloy, bx box.Box, species []int32, pos []vec.Vec3) (f []vec.Vec3, total float64) {
	n := len(pos)
	f = make([]vec.Vec3, n)
	rho := make([]float64, n)
	cut := pot.Cutoff()
	pair := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := bx.MinImage(pos[i], pos[j])
			r := d.Norm()
			if r >= cut || r <= 0 {
				continue
			}
			pj, _ := pot.DensityOf(int(species[j]), r)
			pi, _ := pot.DensityOf(int(species[i]), r)
			rho[i] += pj
			rho[j] += pi
			v, _ := pot.PairEnergy(int(species[i]), int(species[j]), r)
			pair += v
		}
	}
	fp := make([]float64, n)
	embed := 0.0
	for i := 0; i < n; i++ {
		fe, dfe := pot.EmbedOf(int(species[i]), rho[i])
		embed += fe
		fp[i] = dfe
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := bx.MinImage(pos[i], pos[j])
			r := d.Norm()
			if r >= cut || r <= 0 {
				continue
			}
			si, sj := int(species[i]), int(species[j])
			_, dv := pot.PairEnergy(si, sj, r)
			_, dphiJ := pot.DensityOf(sj, r)
			_, dphiI := pot.DensityOf(si, r)
			coeff := dv + fp[i]*dphiJ + fp[j]*dphiI
			fij := d.Scale(-coeff / r)
			f[i] = f[i].Add(fij)
			f[j] = f[j].Sub(fij)
		}
	}
	return f, pair + embed
}
