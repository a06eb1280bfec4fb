package energy

import (
	"fmt"

	"cata/internal/probe"
	"cata/internal/sim"
)

// Meter integrates chip energy over a simulation. Each core reports state
// changes (operating level or C-state); the meter charges the elapsed
// interval at the previous state's power. The uncore term is charged over
// total elapsed time at Finish.
//
// Meter is driven by the machine model; it never schedules events itself.
type Meter struct {
	model  *Model
	now    func() sim.Time
	cores  []coreState
	joules float64
	start  sim.Time
	done   bool

	rec      probe.Recorder
	curWatts float64 // sum of per-core watts at current states (rec != nil only)
	uncore   float64 // constant uncore watts (UncoreWattsPerCore × cores)
}

type coreState struct {
	level Level
	cst   CState
	since sim.Time
}

// NewMeter creates a meter for n cores, all initially at level Slow in
// C0Idle. now supplies the simulation clock.
func NewMeter(model *Model, n int, now func() sim.Time) *Meter {
	if err := model.Validate(); err != nil {
		panic(err)
	}
	m := &Meter{model: model, now: now, start: now()}
	m.cores = make([]coreState, n)
	for i := range m.cores {
		m.cores[i] = coreState{level: Slow, cst: C0Idle, since: m.start}
	}
	return m
}

// SetRecorder attaches a flight recorder; the meter then reports total
// chip power (cores + uncore) after every state change, seeded with the
// power of the current states at attach time. Recording never changes
// the integrated energy — the running total is a parallel computation.
func (m *Meter) SetRecorder(rec probe.Recorder) {
	m.rec = rec
	if rec == nil {
		return
	}
	m.uncore = m.model.UncoreWattsPerCore * float64(len(m.cores))
	m.curWatts = 0
	for i := range m.cores {
		m.curWatts += m.model.CoreWatts(m.cores[i].level, m.cores[i].cst)
	}
	rec.Power(m.now(), m.curWatts+m.uncore)
}

// SetState records that core changed to (level, cstate) at the current
// simulation time, charging the interval since the previous change.
func (m *Meter) SetState(core int, level Level, cst CState) {
	if m.done {
		panic("energy: SetState after Finish")
	}
	c := &m.cores[core]
	t := m.now()
	if t < c.since {
		panic(fmt.Sprintf("energy: core %d time went backwards %v -> %v", core, c.since, t))
	}
	// The product is rounded before it is summed, so no architecture
	// fuses it into a multiply-add and joules are the same bits
	// everywhere.
	m.joules += float64(m.model.CoreWatts(c.level, c.cst) * (t - c.since).Seconds())
	if m.rec != nil {
		m.curWatts += m.model.CoreWatts(level, cst) - m.model.CoreWatts(c.level, c.cst)
		m.rec.Power(t, m.curWatts+m.uncore)
	}
	c.level = level
	c.cst = cst
	c.since = t
}

// State returns the current (level, C-state) of a core.
func (m *Meter) State(core int) (Level, CState) {
	c := m.cores[core]
	return c.level, c.cst
}

// Finish closes all intervals at the current time and returns the total
// chip energy in joules (cores + uncore). Calling Finish twice panics.
func (m *Meter) Finish() float64 {
	if m.done {
		panic("energy: Finish called twice")
	}
	t := m.now()
	for i := range m.cores {
		c := &m.cores[i]
		m.joules += float64(m.model.CoreWatts(c.level, c.cst) * (t - c.since).Seconds())
		c.since = t
	}
	elapsed := (t - m.start).Seconds()
	m.joules += float64(m.model.UncoreWattsPerCore * float64(len(m.cores)) * elapsed)
	m.done = true
	return m.joules
}

// Joules returns the energy integrated so far (excludes uncore until
// Finish, and excludes open per-core intervals).
func (m *Meter) Joules() float64 { return m.joules }

// EDP returns the energy-delay product for the given energy and delay.
// Units: joule-seconds.
func EDP(joules float64, delay sim.Time) float64 {
	return joules * delay.Seconds()
}
