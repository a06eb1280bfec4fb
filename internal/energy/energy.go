// Package energy models chip power and integrates it into energy, standing
// in for the McPAT power evaluation of the paper (§IV).
//
// The model is analytic: per-core dynamic power scales as Ceff·V²·f times
// an activity factor determined by the core's C-state and utilization, and
// leakage scales linearly with supply voltage. A constant uncore term
// accounts for the shared L2 NUCA, directory and mesh NoC of Table I.
// Absolute watts are calibrated to plausible 22 nm values, but every
// paper-reproduced metric (normalized EDP) is a ratio, which depends only
// on the V²f scaling and C-state handling.
package energy

import (
	"fmt"

	"cata/internal/sim"
)

// Level indexes a DVFS operating point. The paper evaluates a dual-rail
// Vdd design with exactly two levels; the model supports more for the
// "future work" ablation.
type Level int

// The two paper levels.
const (
	Slow Level = 0 // 1 GHz, 0.8 V
	Fast Level = 1 // 2 GHz, 1.0 V
)

// OperatingPoint is one DVFS voltage/frequency pair.
type OperatingPoint struct {
	Freq    sim.Hertz
	Voltage float64 // volts
}

// String renders the point as frequency@voltage.
func (p OperatingPoint) String() string {
	return fmt.Sprintf("%v@%gV", p.Freq, p.Voltage)
}

// CState is an ACPI-like core power state (§III-B.5 of the paper).
type CState int

const (
	// C0Active: the core is executing instructions.
	C0Active CState = iota
	// C0Idle: the core is in C0 but spinning in the runtime idle loop
	// (polling for work); it burns less dynamic power than real work.
	C0Idle
	// C1Halt: the core executed `halt`; clock is gated, leakage remains.
	C1Halt
	// C3Sleep: deep sleep; clock off and most leakage power-gated.
	C3Sleep
)

// String returns the ACPI-style state name.
func (c CState) String() string {
	switch c {
	case C0Active:
		return "C0"
	case C0Idle:
		return "C0-idle"
	case C1Halt:
		return "C1"
	case C3Sleep:
		return "C3"
	default:
		return fmt.Sprintf("CState(%d)", int(c))
	}
}

// Model holds the calibration constants of the power model.
type Model struct {
	// Points are the available operating points, indexed by Level.
	Points []OperatingPoint
	// CeffFarads is the effective switched capacitance per core. The
	// default is calibrated so one core at 2 GHz / 1.0 V burns 2.5 W
	// dynamic, a plausible 22 nm out-of-order core.
	CeffFarads float64
	// LeakWattsNominal is per-core leakage at nominal (1.0 V) supply.
	// Leakage scales super-linearly with V (DIBL and gate leakage); the
	// model uses (V/Vnom)³, a common compact approximation at 22 nm.
	LeakWattsNominal float64
	// VNominal is the voltage LeakWattsNominal refers to.
	VNominal float64
	// IdleActivity scales dynamic power in C0Idle (runtime idle loop).
	IdleActivity float64
	// HaltActivity scales dynamic power in C1 (clock-gated).
	HaltActivity float64
	// SleepLeakFraction scales leakage in C3 (power-gated).
	SleepLeakFraction float64
	// UncoreWattsPerCore is the always-on shared-resource power (L2 bank,
	// directory slice, NoC router) attributed to each core.
	UncoreWattsPerCore float64
}

// Default returns the calibration used throughout the reproduction: the
// Table I dual-rail points (2 GHz/1.0 V, 1 GHz/0.8 V) and 22 nm-ish
// constants.
func Default() *Model {
	return &Model{
		Points: []OperatingPoint{
			Slow: {Freq: 1 * sim.Gigahertz, Voltage: 0.8},
			Fast: {Freq: 2 * sim.Gigahertz, Voltage: 1.0},
		},
		CeffFarads:         1.25e-9, // 2.5 W at 1.0 V, 2 GHz
		LeakWattsNominal:   0.75,
		VNominal:           1.0,
		IdleActivity:       0.25,
		HaltActivity:       0.02,
		SleepLeakFraction:  0.15,
		UncoreWattsPerCore: 0.25,
	}
}

// Validate checks the model for configuration mistakes.
func (m *Model) Validate() error {
	if len(m.Points) < 2 {
		return fmt.Errorf("energy: need at least 2 operating points, have %d", len(m.Points))
	}
	for i, p := range m.Points {
		if p.Freq <= 0 || p.Voltage <= 0 {
			return fmt.Errorf("energy: operating point %d invalid: %v", i, p)
		}
	}
	if m.CeffFarads <= 0 || m.LeakWattsNominal < 0 || m.VNominal <= 0 {
		return fmt.Errorf("energy: non-physical calibration constants")
	}
	if m.IdleActivity < 0 || m.IdleActivity > 1 ||
		m.HaltActivity < 0 || m.HaltActivity > 1 ||
		m.SleepLeakFraction < 0 || m.SleepLeakFraction > 1 {
		return fmt.Errorf("energy: activity fractions must be in [0,1]")
	}
	return nil
}

// Point returns the operating point for level l.
func (m *Model) Point(l Level) OperatingPoint {
	if int(l) < 0 || int(l) >= len(m.Points) {
		panic(fmt.Sprintf("energy: level %d out of range (have %d points)", l, len(m.Points)))
	}
	return m.Points[l]
}

// Levels returns the number of operating points.
func (m *Model) Levels() int { return len(m.Points) }

// DynamicWatts returns dynamic power of a core at level l with the given
// activity factor in [0,1].
func (m *Model) DynamicWatts(l Level, activity float64) float64 {
	p := m.Point(l)
	return m.CeffFarads * p.Voltage * p.Voltage * float64(p.Freq) * activity
}

// LeakWatts returns leakage power at level l's voltage, scaling with
// (V/Vnom)³.
func (m *Model) LeakWatts(l Level) float64 {
	r := m.Point(l).Voltage / m.VNominal
	return m.LeakWattsNominal * r * r * r
}

// CoreWatts returns total power of one core at level l in C-state c.
// Both terms are products; rounding each (float64(...)) keeps an
// architecture from fusing one into a multiply-add, so the sum has the
// same bits on every machine.
func (m *Model) CoreWatts(l Level, c CState) float64 {
	switch c {
	case C0Active:
		return float64(m.DynamicWatts(l, 1)) + float64(m.LeakWatts(l))
	case C0Idle:
		return float64(m.DynamicWatts(l, m.IdleActivity)) + float64(m.LeakWatts(l))
	case C1Halt:
		return float64(m.DynamicWatts(l, m.HaltActivity)) + float64(m.LeakWatts(l))
	case C3Sleep:
		return m.LeakWatts(l) * m.SleepLeakFraction
	default:
		panic(fmt.Sprintf("energy: unknown C-state %d", int(c)))
	}
}
