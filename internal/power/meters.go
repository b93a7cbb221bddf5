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
	// (Go spec, floating-point operators), so the simulator's armed
	// replay, which adds the stored product, matches on every target.
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

// FlatCarry copies the fractional-joule carries into pkg (which must
// hold one element per socket) and returns the DRAM carry. Together
// with SetFlatCarry it lets the simulator's armed replay lift the
// meter's hot state and restore it unchanged afterwards.
func (r *Rapl) FlatCarry(pkg []float64) (dram float64) {
	copy(pkg, r.carryPkg)
	return r.carryDram
}

// SetFlatCarry restores carries previously lifted with FlatCarry (or
// advanced externally by a replay of Advance's arithmetic).
func (r *Rapl) SetFlatCarry(pkg []float64, dram float64) {
	copy(r.carryPkg, pkg)
	r.carryDram = dram
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

// FlatState returns the meter's full internal state: the true energy
// integral, the published counter, the last publication time and the
// meter clock. It exists so the simulator's armed replay can lift the
// state, advance it with Advance's exact arithmetic, and restore it
// with SetFlatState — the flat round trip is bit-exact.
func (nm *NodeManager) FlatState() (trueJ, published, lastPub, now float64) {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	return nm.trueJ, nm.published, nm.lastPub, nm.now
}

// SetFlatState restores state previously lifted with FlatState.
func (nm *NodeManager) SetFlatState(trueJ, published, lastPub, now float64) {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	nm.trueJ, nm.published, nm.lastPub, nm.now = trueJ, published, lastPub, now
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
