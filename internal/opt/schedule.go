// Package opt provides the learning-rate schedule the training loops use:
// the step decay of the paper (÷10 at fixed epoch boundaries). The update
// itself, w ← w − γ·(g + wd·w), is the parameter server's (ps.server.apply).
package opt

// StepSchedule divides the base learning rate by Factor at each boundary
// epoch, mirroring the paper's "divided by ten after 80 and 120 epochs"
// (CIFAR-10) and "reduced by ten times at the 60th and 90th epoch"
// (ImageNet).
type StepSchedule struct {
	Base       float64
	Boundaries []int
	Factor     float64
}

// NewPaperSchedule builds the schedule for a run of totalEpochs epochs with
// drops at 1/2 and 3/4 of training, the proportional positions of the
// paper's boundaries.
func NewPaperSchedule(base float64, totalEpochs int) StepSchedule {
	return StepSchedule{
		Base:       base,
		Boundaries: []int{totalEpochs / 2, totalEpochs * 3 / 4},
		Factor:     10,
	}
}

// At returns the learning rate in effect during the given epoch.
func (s StepSchedule) At(epoch int) float64 {
	lr := s.Base
	for _, b := range s.Boundaries {
		if epoch >= b {
			lr /= s.Factor
		}
	}
	return lr
}
