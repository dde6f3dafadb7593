package opt

import "fmt"

// Delay/energy trade-off for repeater insertion. The authors' follow-on
// work on RLC repeater insertion emphasizes that inductance shifts the
// delay-optimal repeater count downward, which also saves switching
// energy; this sweep exposes the whole front so callers can trade a few
// percent of delay for substantial energy.

// RepeaterPoint is one candidate repeated-line design.
type RepeaterPoint struct {
	K          int     // repeater count
	Size       float64 // delay-optimal size at this K
	TotalDelay float64 // [s]
	Energy     float64 // switching energy per transition [J]
	Pareto     bool    // true if no other point is better in both metrics
}

// SwitchingEnergy returns the CV² switching energy per output transition
// of a repeated line: the full wire capacitance plus every repeater's
// input capacitance, at the given supply.
func SwitchingEnergy(line LineSpec, rep Repeater, k int, size, vdd float64) float64 {
	cTotal := line.C + float64(k)*rep.CIn*size
	return cTotal * vdd * vdd
}

// RepeaterPareto sweeps k = 1..maxK, sizing each candidate for minimum
// delay, and returns every point with its switching energy and Pareto
// flag (points not dominated in both delay and energy).
func RepeaterPareto(line LineSpec, rep Repeater, maxK int, sizeMin, sizeMax, vdd float64) ([]RepeaterPoint, error) {
	if !(vdd > 0) {
		return nil, fmt.Errorf("opt: vdd must be positive, got %g", vdd)
	}
	plans, err := repeaterSweep(line, rep, maxK, sizeMin, sizeMax)
	if err != nil {
		return nil, err
	}
	points := make([]RepeaterPoint, len(plans))
	for i, p := range plans {
		points[i] = RepeaterPoint{
			K:          p.K,
			Size:       p.Size,
			TotalDelay: p.TotalDelay,
			Energy:     SwitchingEnergy(line, rep, p.K, p.Size, vdd),
		}
	}
	// Pareto flags: a point is dominated if another is ≤ in both metrics
	// and < in at least one.
	for i := range points {
		dominated := false
		for j := range points {
			if i == j {
				continue
			}
			if points[j].TotalDelay <= points[i].TotalDelay && points[j].Energy <= points[i].Energy &&
				(points[j].TotalDelay < points[i].TotalDelay || points[j].Energy < points[i].Energy) {
				dominated = true
				break
			}
		}
		points[i].Pareto = !dominated
	}
	return points, nil
}
