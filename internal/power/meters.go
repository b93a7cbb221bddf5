package power

import (
	"fmt"
	"sync"

	"goear/internal/msr"
)

// Rapl feeds per-socket RAPL energy counters from the node power model.
// Package energy is split evenly across sockets; DRAM energy goes to
// socket 0's DRAM counter (matching how single-controller readings are
// aggregated by EAR).
type Rapl struct {
	sockets []*msr.File
	// carry accumulates fractional joules between MSR updates so the
	// truncating counter conversion loses nothing over time.
	carryPkg  []float64
	carryDram float64
}

// Init (re)wires the emulation to the given per-socket MSR files with
// zeroed carries, reusing the receiver's buffers, for meters embedded
// in recycled per-run state; a zero Rapl is ready once Init returns.
func (r *Rapl) Init(sockets []*msr.File) error {
	if len(sockets) == 0 {
		return fmt.Errorf("power: RAPL needs at least one socket")
	}
	r.sockets = sockets
	if cap(r.carryPkg) < len(sockets) {
		r.carryPkg = make([]float64, len(sockets))
	} else {
		r.carryPkg = r.carryPkg[:len(sockets)]
		for i := range r.carryPkg {
			r.carryPkg[i] = 0
		}
	}
	r.carryDram = 0
	return nil
}

// Advance accounts dt seconds of the given breakdown into the counters.
func (r *Rapl) Advance(b Breakdown, dt float64) error {
	if dt < 0 {
		return fmt.Errorf("power: negative time step %g", dt)
	}
	// float64(a*b) forbids fusing the product into the add that follows
	// (Go spec, floating-point operators), so Span, which forms the same
	// product once for its whole span, matches on every target.
	perSocketPkg := float64(b.Pkg / float64(len(r.sockets)) * dt)
	for i, s := range r.sockets {
		j := perSocketPkg + r.carryPkg[i]
		// AddEnergyHw truncates to whole counter units; keep the
		// remainder for the next tick.
		whole := float64(int64(j*1e6)) / 1e6 // limit carry drift
		if _, err := s.AddEnergyHw(msr.MSRPkgEnergyStatus, whole); err != nil {
			return err
		}
		r.carryPkg[i] = j - whole
	}
	j := float64(b.Dram*dt) + r.carryDram
	whole := float64(int64(j*1e6)) / 1e6
	if _, err := r.sockets[0].AddEnergyHw(msr.MSRDramEnergyStatus, whole); err != nil {
		return err
	}
	r.carryDram = j - whole
	return nil
}

// Span accounts k successive Advance(b, dt) calls at once, bit for bit:
// the carries and the energy registers land where the k calls leave
// them, and each register is read and written once. Every span, one
// tick or many, is solved in closed form (raplSpan).
func (r *Rapl) Span(b Breakdown, dt float64, k uint64) error {
	if dt < 0 {
		return fmt.Errorf("power: negative time step %g", dt)
	}
	perSocketPkg := float64(b.Pkg / float64(len(r.sockets)) * dt)
	for i, s := range r.sockets {
		unit, err := s.Read(msr.MSRRaplPowerUnit)
		if err != nil {
			return err
		}
		esu := float64(uint64(1) << ((unit >> 8) & 0x1F))
		if r.carryPkg[i], err = spanCounter(s, msr.MSRPkgEnergyStatus, perSocketPkg, r.carryPkg[i], esu, k); err != nil {
			return err
		}
		if i == 0 {
			if r.carryDram, err = spanCounter(s, msr.MSRDramEnergyStatus, float64(b.Dram*dt), r.carryDram, esu, k); err != nil {
				return err
			}
		}
	}
	return nil
}

// spanCounter moves one energy register and its carry k ticks of p
// joules ahead and returns the carry.
func spanCounter(f *msr.File, reg uint32, p, carry, esu float64, k uint64) (float64, error) {
	cnt, err := f.Read(reg)
	if err != nil {
		return carry, err
	}
	carry, cnt = raplSpan(p, carry, cnt, esu, k)
	return carry, f.WriteHw(reg, cnt)
}

// NodeManager emulates the Intel Node Manager DC energy meter: the true
// energy integral is internal; the published counter only changes once
// per second of simulated time, which is what IPMI readers observe. The
// zero value is a meter at time zero with zero energy.
type NodeManager struct {
	mu        sync.Mutex
	trueJ     float64
	published float64
	lastPub   float64 // simulated time of last publication, seconds
	now       float64
}

// Init resets the meter to time zero with zero energy, for meters
// embedded in recycled per-run state.
func (nm *NodeManager) Init() {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	nm.trueJ, nm.published, nm.lastPub, nm.now = 0, 0, 0, 0
}

// Advance integrates power over dt simulated seconds and publishes the
// counter at every whole-second boundary crossed.
func (nm *NodeManager) Advance(powerW, dt float64) error {
	if dt < 0 {
		return fmt.Errorf("power: negative time step %g", dt)
	}
	nm.mu.Lock()
	defer nm.mu.Unlock()
	nm.trueJ += float64(powerW * dt) // unfused, see Rapl.Advance
	nm.now += dt
	if nm.now-nm.lastPub >= 1.0 {
		nm.published = nm.trueJ
		nm.lastPub = float64(int64(nm.now)) // snap to the boundary
	}
	return nil
}

// Span integrates k successive Advance(powerW, dt) calls at once, bit
// for bit: energy integral, published counter, last publication and
// clock, in closed form (inmSpan) whatever k is.
func (nm *NodeManager) Span(powerW, dt float64, k uint64) error {
	if dt < 0 {
		return fmt.Errorf("power: negative time step %g", dt)
	}
	nm.mu.Lock()
	defer nm.mu.Unlock()
	nm.trueJ, nm.published, nm.lastPub, nm.now = inmSpan(nm.trueJ, nm.published, nm.lastPub, nm.now, float64(powerW*dt), dt, k)
	return nil
}

// ReadEnergy returns the last published accumulated DC energy in joules,
// as an IPMI read of the INM counter would.
func (nm *NodeManager) ReadEnergy() float64 {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	return nm.published
}

// TrueEnergy returns the exact integral, used by the simulator's own
// bookkeeping (not visible to EARL).
func (nm *NodeManager) TrueEnergy() float64 {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	return nm.trueJ
}
