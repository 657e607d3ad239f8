// Package core implements the paper's contribution: the loss predictor
// (Algorithm 3), the multivariate step predictor (Algorithm 4), the
// loss-compensation arithmetic (Formula 5, under the gradient-scaling
// interpretation documented in DESIGN.md), the Async-BN statistics
// accumulator (Formulas 6–7), and the iter worker-sequence log the server
// maintains to derive observed staleness.
package core

// IterLog is the parameter server's record of the order in which workers
// delivered results — the `iter` list of Algorithm 2. It answers the one
// query the step predictor needs: how many other workers updated the server
// between a worker's two most recent deliveries (the observed staleness
// k_m). That takes only the delivery count and each worker's last position
// in the list, so those are all it holds.
type IterLog struct {
	n    int   // deliveries so far
	last []int // per worker: position of its latest delivery, -1 before the first
}

// NewIterLog returns an empty log for a fleet of the given size.
func NewIterLog(workers int) *IterLog {
	l := &IterLog{last: make([]int, workers)}
	for m := range l.last {
		l.last[m] = -1
	}
	return l
}

// Append records that worker m delivered a result, returning the observed
// staleness: the number of entries by other workers since m's previous
// delivery, or -1 if this is m's first delivery (no staleness sample yet).
func (l *IterLog) Append(m int) int {
	gap := -1
	if prev := l.last[m]; prev >= 0 {
		gap = l.n - prev - 1
	}
	l.last[m] = l.n
	l.n++
	return gap
}
