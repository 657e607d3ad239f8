package nn

// BatchStats exposes a BN layer's latest batch statistics to the package's
// external tests.
func BatchStats(bn *BatchNorm) (mean, vari []float64) { return bn.batchMean, bn.batchVar }
