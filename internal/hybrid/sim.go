package hybrid

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sdcmd/internal/box"
	"sdcmd/internal/force"
	"sdcmd/internal/guard"
	"sdcmd/internal/md"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/potential"
	"sdcmd/internal/strategy"
	"sdcmd/internal/vec"
)

// Config parameterizes a hybrid (rank-parallel + thread-parallel)
// simulation.
type Config struct {
	// Pot is the interatomic potential.
	Pot potential.EAM
	// Ranks is the number of simulated MPI processes (x-slabs), >= 2.
	Ranks int
	// Strategy selects the within-rank force parallelization: Serial
	// or SDC (the paper's hybrid vision is MPI across nodes + SDC
	// inside each node).
	Strategy strategy.Kind
	// ThreadsPerRank sizes each rank's worker pool when Strategy==SDC.
	ThreadsPerRank int
	// Skin is the Verlet skin (>= 0).
	Skin float64
	// Dt is the timestep in ps.
	Dt float64
	// Mass is the per-atom mass.
	Mass float64
	// ThermostatTarget, when > 0, applies a global Berendsen rescale
	// each step with time constant ThermostatTau (the collective
	// temperature comes from an allreduce, as a real MPI code does).
	ThermostatTarget, ThermostatTau float64
	// ExchangeTimeout bounds every blocking communication wait
	// (receives, allreduces); 0 waits forever. On expiry the step fails
	// with a typed *TimeoutError instead of hanging on a wedged rank.
	ExchangeTimeout time.Duration
	// CheckEvery, when > 0, validates each rank's owned positions,
	// velocities and forces for finiteness every CheckEvery steps; a
	// violation fails the step with a typed guard fault, so a
	// supervisor can roll back instead of integrating garbage.
	CheckEvery int
}

// DefaultConfig mirrors md.DefaultConfig for the hybrid engine.
func DefaultConfig() Config {
	return Config{
		Pot:            potential.DefaultFe(),
		Ranks:          2,
		Strategy:       strategy.Serial,
		ThreadsPerRank: 1,
		Skin:           0.5,
		Dt:             1e-3,
		Mass:           md.FeMass,
	}
}

// Simulator coordinates the ranks. All public methods are driven from
// one goroutine; rank goroutines only live inside calls.
type Simulator struct {
	cfg   Config
	comm  *Comm
	gbox  box.Box
	ranks []*rank
	step  int
}

// NewSimulator distributes the global configuration over the ranks,
// builds ghosts/lists/decompositions and computes initial forces.
func NewSimulator(gbox box.Box, pos, vel []vec.Vec3, cfg Config) (*Simulator, error) {
	if cfg.Pot == nil {
		return nil, errors.New("hybrid: nil potential")
	}
	if cfg.Ranks < 2 {
		return nil, fmt.Errorf("hybrid: ranks %d must be >= 2 (use md.Simulator for one domain)", cfg.Ranks)
	}
	if len(pos) != len(vel) {
		return nil, fmt.Errorf("hybrid: %d positions vs %d velocities", len(pos), len(vel))
	}
	if !(cfg.Dt > 0) || cfg.Skin < 0 || !(cfg.Mass > 0) {
		return nil, fmt.Errorf("hybrid: bad dt/skin/mass %g/%g/%g", cfg.Dt, cfg.Skin, cfg.Mass)
	}
	if cfg.Strategy != strategy.Serial && cfg.Strategy != strategy.SDC {
		return nil, fmt.Errorf("hybrid: within-rank strategy must be serial or sdc, got %v", cfg.Strategy)
	}
	if cfg.ThermostatTarget < 0 || (cfg.ThermostatTarget > 0 && !(cfg.ThermostatTau > 0)) {
		return nil, fmt.Errorf("hybrid: bad thermostat target %g / tau %g", cfg.ThermostatTarget, cfg.ThermostatTau)
	}
	if cfg.Strategy == strategy.SDC && cfg.ThreadsPerRank < 1 {
		return nil, fmt.Errorf("hybrid: threads per rank %d must be >= 1", cfg.ThreadsPerRank)
	}
	if cfg.ExchangeTimeout < 0 {
		return nil, fmt.Errorf("hybrid: exchange timeout %v must be >= 0", cfg.ExchangeTimeout)
	}
	if cfg.CheckEvery < 0 {
		return nil, fmt.Errorf("hybrid: check interval %d must be >= 0", cfg.CheckEvery)
	}
	reach := cfg.Pot.Cutoff() + cfg.Skin
	l := gbox.Lengths()
	if !gbox.Periodic[0] || !gbox.Periodic[1] || !gbox.Periodic[2] {
		return nil, errors.New("hybrid: the global box must be fully periodic")
	}
	slabW := l[0] / float64(cfg.Ranks)
	if slabW < reach {
		return nil, fmt.Errorf("hybrid: slab width %g < reach %g — too many ranks for this box", slabW, reach)
	}
	if l[1] < 2*reach || l[2] < 2*reach {
		return nil, fmt.Errorf("hybrid: box cross-section %gx%g too small for reach %g", l[1], l[2], reach)
	}

	comm, err := NewComm(cfg.Ranks)
	if err != nil {
		return nil, err
	}
	comm.SetTimeout(cfg.ExchangeTimeout)
	s := &Simulator{cfg: cfg, comm: comm, gbox: gbox, ranks: make([]*rank, cfg.Ranks)}
	for id := 0; id < cfg.Ranks; id++ {
		r := &rank{
			id:     id,
			comm:   comm,
			cfg:    cfg,
			gbox:   gbox,
			slabLo: gbox.Lo[0] + float64(id)*slabW,
			slabHi: gbox.Lo[0] + float64(id+1)*slabW,
			left:   (id - 1 + cfg.Ranks) % cfg.Ranks,
			right:  (id + 1) % cfg.Ranks,
		}
		if r.eng, err = force.NewEngine(cfg.Pot, r.localBox()); err != nil {
			s.Close()
			return nil, err
		}
		if cfg.Strategy == strategy.SDC {
			if r.pool, err = strategy.NewPool(cfg.ThreadsPerRank); err != nil {
				s.Close()
				return nil, err
			}
		}
		s.ranks[id] = r
	}
	// Initial distribution by wrapped x.
	for i, p := range pos {
		w := gbox.Wrap(p)
		r := s.ranks[s.ranks[0].ownerOf(w[0])]
		r.gid = append(r.gid, int32(i))
		r.pos = append(r.pos, w)
		r.vel = append(r.vel, vel[i])
	}
	for _, r := range s.ranks {
		r.nOwned = len(r.gid)
	}
	if err := s.parallel(func(r *rank) error {
		if err := r.exchangeGhosts(); err != nil {
			return err
		}
		if err := r.rebuildStructures(); err != nil {
			return err
		}
		return r.computeForces()
	}); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// parallel runs f concurrently on every rank and joins errors.
func (s *Simulator) parallel(f func(r *rank) error) error {
	errs := make([]error, len(s.ranks))
	var wg sync.WaitGroup
	for i := range s.ranks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(s.ranks[i])
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Step advances n velocity-Verlet steps across all ranks in lockstep.
func (s *Simulator) Step(n int) error {
	cfg := s.cfg
	halfDtOverM := 0.5 * cfg.Dt / cfg.Mass
	halfSkin2 := (cfg.Skin / 2) * (cfg.Skin / 2)
	thermostat := md.Berendsen{Target: cfg.ThermostatTarget, Tau: cfg.ThermostatTau}
	err := s.parallel(func(r *rank) error {
		for k := 0; k < n; k++ {
			for i := 0; i < r.nOwned; i++ {
				r.vel[i] = r.vel[i].AddScaled(halfDtOverM, r.frc[i])
				r.pos[i] = r.pos[i].AddScaled(cfg.Dt, r.vel[i])
			}
			disp2 := neighbor.MaxDisplacement2(r.gbox, r.posAtBuild, r.pos[:r.nOwned])
			glob, err := r.comm.AllReduceMax(r.id, disp2)
			if err != nil {
				return err
			}
			if cfg.Skin <= 0 || glob > halfSkin2 {
				r.wrapOwned()
				if err := r.migrate(); err != nil {
					return err
				}
				if err := r.exchangeGhosts(); err != nil {
					return err
				}
				if err := r.rebuildStructures(); err != nil {
					return err
				}
			} else if err := r.refreshGhostPositions(); err != nil {
				return err
			}
			if err := r.computeForces(); err != nil {
				return err
			}
			for i := 0; i < r.nOwned; i++ {
				r.vel[i] = r.vel[i].AddScaled(halfDtOverM, r.frc[i])
			}
			if cfg.ThermostatTarget > 0 {
				// Global Berendsen: temperature from collective KE.
				keGlobal, err := r.comm.AllReduceSum(r.id, r.kineticEnergy())
				if err != nil {
					return err
				}
				nGlobal, err := r.comm.AllReduceSum(r.id, float64(r.nOwned))
				if err != nil {
					return err
				}
				scale := thermostat.Lambda(2*keGlobal/(3*nGlobal*md.KB), cfg.Dt)
				for i := 0; i < r.nOwned; i++ {
					r.vel[i] = r.vel[i].Scale(scale)
				}
			}
			if cfg.CheckEvery > 0 && (s.step+k+1)%cfg.CheckEvery == 0 {
				// Each rank checks its own slab; the typed fault names
				// the local atom index and the rank via wrapping.
				if f := guard.CheckVectors(r.pos[:r.nOwned], r.vel, r.frc[:r.nOwned], s.step+k+1); f != nil {
					return fmt.Errorf("hybrid: rank %d: %w", r.id, f)
				}
			}
		}
		return nil
	})
	if err == nil {
		s.step += n
	}
	return err
}

// StepCount returns completed steps.
func (s *Simulator) StepCount() int { return s.step }

// N returns the global atom count.
func (s *Simulator) N() int {
	n := 0
	for _, r := range s.ranks {
		n += r.nOwned
	}
	return n
}

// PotentialEnergy returns the global EAM energy at the current
// positions: each rank's embedding energy from its latest force
// evaluation plus its pair term, swept on demand over the pairs it
// owns (each pair is counted on exactly one rank).
func (s *Simulator) PotentialEnergy() float64 {
	e := 0.0
	for _, r := range s.ranks {
		pair, err := r.eng.PairEnergy(r.red, r.pos)
		if err != nil {
			// A single-species engine has no species array to mismatch.
			//lint:ignore no-panic unreachable for a single-species engine, not a recoverable condition
			panic(err)
		}
		e += pair + r.embedEnergy
	}
	return e
}

// KineticEnergy sums the owned-atom kinetic energies.
func (s *Simulator) KineticEnergy() float64 {
	ke := 0.0
	for _, r := range s.ranks {
		ke += r.kineticEnergy()
	}
	return ke
}

// TotalEnergy returns KE + PE.
func (s *Simulator) TotalEnergy() float64 {
	return s.KineticEnergy() + s.PotentialEnergy()
}

// Temperature returns the global kinetic temperature.
func (s *Simulator) Temperature() float64 {
	n := s.N()
	if n == 0 {
		return 0
	}
	return 2 * s.KineticEnergy() / (3 * float64(n) * md.KB)
}

// Gather assembles the global positions, velocities and forces indexed
// by original atom id (for analysis, snapshots and tests).
func (s *Simulator) Gather() (pos, vel, frc []vec.Vec3) {
	n := s.N()
	pos = make([]vec.Vec3, n)
	vel = make([]vec.Vec3, n)
	frc = make([]vec.Vec3, n)
	for _, r := range s.ranks {
		for i := 0; i < r.nOwned; i++ {
			g := r.gid[i]
			pos[g] = s.gbox.Wrap(r.pos[i])
			vel[g] = r.vel[i]
			frc[g] = r.frc[i]
		}
	}
	return pos, vel, frc
}

// RankLoads returns the owned-atom count per rank (load-balance
// diagnostic).
func (s *Simulator) RankLoads() []int {
	out := make([]int, len(s.ranks))
	for i, r := range s.ranks {
		out[i] = r.nOwned
	}
	return out
}

// Close releases the per-rank worker pools.
func (s *Simulator) Close() {
	for _, r := range s.ranks {
		if r != nil && r.pool != nil {
			r.pool.Close()
			r.pool = nil
		}
	}
}
