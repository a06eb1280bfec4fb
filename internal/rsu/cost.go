package rsu

import (
	"fmt"
	"math"
	"strings"
)

// Cost reproduces the storage/area/power overhead analysis of §III-B.4.
// The RSU stores 3 bits per core (2-bit criticality + 1-bit status),
// log2(numCores) bits of power budget, and two power-state registers of
// log2(numPowerStates) bits each:
//
//	bits = 3·n + ⌈log2 n⌉ + 2·⌈log2 p⌉
//
// Area and power are estimated CACTI-style from per-bit register-file
// constants at 22 nm; the paper reports <0.0001% of a 32-core die and
// <50 µW, which these constants reproduce.
type Cost struct {
	Cores       int
	PowerStates int
	StorageBits int
	AreaUm2     float64 // estimated macro area in µm²
	DieFraction float64 // fraction of a 32-core-class die
	PowerWatts  float64 // estimated static+clock power
}

// Cost model constants (22 nm register-file estimates).
const (
	areaPerBitUm2  = 0.45    // µm² per storage bit including decode overhead
	controlAreaUm2 = 15.0    // comparator / priority-encoder logic
	powerPerBitW   = 0.25e-6 // W per bit (leakage + clock)
	controlPowerW  = 12e-6   // W for the decision logic
	refDieAreaUm2  = 300e6   // ~300 mm² 32-core-class die
)

// CostOf evaluates the model for a machine with n cores and p DVFS power
// states.
func CostOf(n, p int) Cost {
	if n <= 0 || p <= 0 {
		panic(fmt.Sprintf("rsu: CostOf(%d, %d) with non-positive argument", n, p))
	}
	bits := 3*n + ceilLog2(n) + 2*ceilLog2(p)
	// Products are rounded before the sums: no fused multiply-add.
	area := float64(float64(bits)*areaPerBitUm2) + controlAreaUm2
	return Cost{
		Cores:       n,
		PowerStates: p,
		StorageBits: bits,
		AreaUm2:     area,
		DieFraction: area / refDieAreaUm2,
		PowerWatts:  float64(float64(bits)*powerPerBitW) + controlPowerW,
	}
}

// ceilLog2 returns ⌈log2 v⌉ for v >= 1, with ceilLog2(1) = 1: one bit is
// the minimum register width.
func ceilLog2(v int) int {
	if v <= 2 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(v))))
}

// CostTable renders the model for a range of machine sizes, with the
// paper's 32-core dual-rail point included.
func CostTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-8s %8s %12s %14s %10s\n",
		"cores", "levels", "bits", "area(µm²)", "die fraction", "power(µW)")
	for _, n := range []int{8, 16, 32, 64, 128} {
		for _, p := range []int{2, 4} {
			c := CostOf(n, p)
			fmt.Fprintf(&b, "%-8d %-8d %8d %12.1f %13.7f%% %10.1f\n",
				n, p, c.StorageBits, c.AreaUm2, c.DieFraction*100, c.PowerWatts*1e6)
		}
	}
	return b.String()
}

// String summarizes the hardware budget in one line.
func (c Cost) String() string {
	return fmt.Sprintf("RSU cost for %d cores, %d power states: %d bits, %.1f µm² (%.6f%% of die), %.1f µW",
		c.Cores, c.PowerStates, c.StorageBits, c.AreaUm2, c.DieFraction*100, c.PowerWatts*1e6)
}
