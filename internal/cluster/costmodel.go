// Package cluster models the distributed execution environment: per-worker
// computation and communication cost distributions, the source of gradient
// staleness.
//
// The paper's evaluation ran on a GPU cluster where each worker's delay is
// "usually high and volatile"; here those delays are lognormal random
// variables with per-worker heterogeneity and optional straggler injection,
// sampled deterministically from a seeded stream so experiments reproduce
// bit-identically. Scenario timelines (internal/scenario) modulate the
// sampler mid-run through phase multipliers that scale the drawn values
// without touching the random stream.
package cluster

import (
	"fmt"
	"math"

	"lcasgd/internal/rng"
	"lcasgd/internal/snapshot"
)

// CostModel describes the timing distributions of a simulated cluster, in
// virtual milliseconds.
type CostModel struct {
	// MeanComp is the mean computation time of one full worker iteration
	// (forward + backward on one mini-batch).
	MeanComp float64
	// MeanComm is the mean one-way communication time between a worker and
	// the parameter server.
	MeanComm float64
	// Sigma is the lognormal shape parameter applied to both distributions;
	// larger values give heavier tails (more volatile delays).
	Sigma float64
	// Heterogeneity spreads per-worker mean speeds: worker multipliers are
	// drawn uniformly from [1-Heterogeneity/2, 1+Heterogeneity/2].
	Heterogeneity float64
	// StragglerProb is the per-iteration probability that a worker's
	// computation is slowed by StragglerFactor, modeling transient
	// contention.
	StragglerProb   float64
	StragglerFactor float64
}

// CIFARCostModel mirrors the paper's Table 2 setting: total iteration time
// around 32 ms.
func CIFARCostModel() CostModel {
	return CostModel{
		MeanComp: 28, MeanComm: 2.5, Sigma: 0.2,
		Heterogeneity: 0.3, StragglerProb: 0.02, StragglerFactor: 3,
	}
}

// ImageNetCostModel mirrors Table 3: total iteration time around 183 ms.
func ImageNetCostModel() CostModel {
	return CostModel{
		MeanComp: 176, MeanComm: 3.5, Sigma: 0.2,
		Heterogeneity: 0.3, StragglerProb: 0.02, StragglerFactor: 3,
	}
}

// Validate checks the model is usable.
func (c CostModel) Validate() error {
	if c.MeanComp <= 0 || c.MeanComm < 0 {
		return fmt.Errorf("cluster: non-positive means in %+v", c)
	}
	if c.Sigma < 0 || c.Heterogeneity < 0 || c.Heterogeneity >= 2 {
		return fmt.Errorf("cluster: bad spread parameters in %+v", c)
	}
	if c.StragglerProb < 0 || c.StragglerProb > 1 {
		return fmt.Errorf("cluster: straggler probability %v", c.StragglerProb)
	}
	return nil
}

// Sampler draws per-worker iteration costs. Each worker has a fixed speed
// multiplier (hardware heterogeneity) plus per-iteration lognormal jitter
// and occasional straggler slowdowns. On top of the stationary model, phase
// multipliers (SetPhase, SetWorkerPhase) scale the sampled times while a
// scenario's congestion window is open; phases multiply the drawn value and
// never consult the RNG, so toggling them mid-run leaves the random stream —
// and therefore every other sampled cost — untouched.
type Sampler struct {
	model CostModel
	mult  []float64
	g     *rng.RNG
	// logMu values chosen so the lognormal mean equals the configured mean:
	// E[lognormal(mu, s)] = exp(mu + s²/2).
	muComp, muComm float64
	// Phase state: fleet-wide multipliers plus per-worker overrides, all 1
	// in the stationary model.
	phaseComp, phaseComm   float64
	wPhaseComp, wPhaseComm []float64
}

// NewSampler builds a sampler for the given worker count.
func (c CostModel) NewSampler(workers int, g *rng.RNG) *Sampler {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	if workers <= 0 {
		panic("cluster: need at least one worker")
	}
	s := &Sampler{
		model: c, g: g,
		phaseComp: 1, phaseComm: 1,
		wPhaseComp: make([]float64, workers),
		wPhaseComm: make([]float64, workers),
	}
	half := c.Heterogeneity / 2
	for m := 0; m < workers; m++ {
		s.mult = append(s.mult, 1-half+c.Heterogeneity*g.Float64())
		s.wPhaseComp[m], s.wPhaseComm[m] = 1, 1
	}
	adj := c.Sigma * c.Sigma / 2
	s.muComp = logOf(c.MeanComp) - adj
	s.muComm = logOf(c.MeanComm) - adj
	return s
}

// MaxPhaseScale bounds every phase multiplier, far above the ≤ 3.5 of the
// canned and randomized timelines. The event loop steps through each
// periodic scenario event while a stretched iteration is in flight, so an
// unbounded multiplier (a restored 1e52) is a run that never ends.
const MaxPhaseScale = 1e3

// CheckPhaseScales is the one rule for a pair of phase multipliers, wherever
// they come from (a scenario event, SetPhase, SetWorkerPhase, a restored
// sampler): each positive, finite and at most MaxPhaseScale. NaN fails it.
func CheckPhaseScales(comp, comm float64) error {
	if !(comp > 0 && comp <= MaxPhaseScale && comm > 0 && comm <= MaxPhaseScale) {
		return fmt.Errorf("phase scales %v/%v outside (0, %v]", comp, comm, MaxPhaseScale)
	}
	return nil
}

// SetPhase installs fleet-wide phase multipliers on computation and
// communication times, within CheckPhaseScales; 1 restores the nominal
// model.
func (s *Sampler) SetPhase(comp, comm float64) {
	if err := CheckPhaseScales(comp, comm); err != nil {
		panic("cluster: " + err.Error())
	}
	s.phaseComp, s.phaseComm = comp, comm
}

// SetWorkerPhase installs phase multipliers for a single worker, composing
// with any fleet-wide phase.
func (s *Sampler) SetWorkerPhase(m int, comp, comm float64) {
	if err := CheckPhaseScales(comp, comm); err != nil {
		panic("cluster: " + err.Error())
	}
	s.wPhaseComp[m], s.wPhaseComm[m] = comp, comm
}

// Comp samples the computation time for worker m's next iteration.
func (s *Sampler) Comp(m int) float64 {
	t := s.mult[m] * s.g.LogNormal(s.muComp, s.model.Sigma)
	if s.model.StragglerProb > 0 && s.g.Float64() < s.model.StragglerProb {
		t *= s.model.StragglerFactor
	}
	return s.phaseComp * s.wPhaseComp[m] * t
}

// Comm samples a one-way communication time for worker m.
func (s *Sampler) Comm(m int) float64 {
	if s.model.MeanComm == 0 {
		return 0
	}
	return s.phaseComm * s.wPhaseComm[m] * s.mult[m] * s.g.LogNormal(s.muComm, s.model.Sigma)
}

// Walk walks the sampler's mutable state: the draw stream's position and
// the phase multipliers a scenario has installed. The fixed per-worker speed
// multipliers and the lognormal parameters are derived from the cost model
// at construction and are not stored — a restored sampler is always built
// from the identical configuration, for the same worker count, first. Each
// stored multiplier, the fleet's and every worker's, is held to
// CheckPhaseScales on its own, as the scenario events that install them are.
func (s *Sampler) Walk(c snapshot.Codec) {
	s.g.Walk(c)
	c.F64(&s.phaseComp)
	c.F64(&s.phaseComm)
	c.F64sInto(s.wPhaseComp)
	c.F64sInto(s.wPhaseComm)
	if !c.Reading() || c.Err() != nil {
		return
	}
	if err := CheckPhaseScales(s.phaseComp, s.phaseComm); err != nil {
		c.Fail(fmt.Errorf("cluster: sampler snapshot fleet %w", err))
		return
	}
	for m := range s.wPhaseComp {
		if err := CheckPhaseScales(s.wPhaseComp[m], s.wPhaseComm[m]); err != nil {
			c.Fail(fmt.Errorf("cluster: sampler snapshot worker %d %w", m, err))
			return
		}
	}
}

// logOf is math.Log guarded for the MeanComm == 0 case (Comm
// short-circuits zero before the distribution is consulted).
func logOf(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Log(v)
}
