// Package core implements the paper's contribution: the loss predictor
// (Algorithm 3), the multivariate step predictor (Algorithm 4), the
// loss-compensation arithmetic (Formula 5, under the gradient-scaling
// interpretation documented in DESIGN.md), the Async-BN statistics
// accumulator (Formulas 6–7), and the iter worker-sequence log the server
// maintains to derive observed staleness.
package core

// IterLog is the parameter server's record of the order in which workers
// delivered results — the `iter` list of Algorithm 2. It supports the one
// query the step predictor needs: how many other workers updated the server
// between a worker's two most recent deliveries (the observed staleness
// k_m).
type IterLog struct {
	seq      []int
	lastSeen map[int]int // worker -> index in seq of most recent entry
}

// NewIterLog returns an empty log.
func NewIterLog() *IterLog {
	return &IterLog{lastSeen: make(map[int]int)}
}

// Append records that worker m delivered a result, returning the observed
// staleness: the number of entries by other workers since m's previous
// delivery, or -1 if this is m's first delivery (no staleness sample yet).
func (l *IterLog) Append(m int) int {
	idx := len(l.seq)
	gap := -1
	if prev, ok := l.lastSeen[m]; ok {
		gap = idx - prev - 1
	}
	l.seq = append(l.seq, m)
	l.lastSeen[m] = idx
	return gap
}
