package nn

import "fmt"

// GradCheck verifies analytic parameter gradients against central finite
// differences. It runs forward+loss at θ±ε for every sampled coordinate and
// compares to the accumulated analytic gradient. It returns the worst
// relative error observed. The loss closure must be deterministic in the
// parameters (fixed batch, fixed BN mode).
//
// stride subsamples coordinates (check every stride-th element) to keep the
// check affordable on convolution layers with thousands of weights.
func GradCheck(net *Sequential, loss func() float64, eps float64, stride int) (float64, error) {
	if stride < 1 {
		stride = 1
	}
	net.ZeroGrad()
	_ = loss() // populate activations
	// The caller's loss closure is expected to run Forward and Backward so
	// that parameter gradients are accumulated. Re-run once to be sure.
	net.ZeroGrad()
	base := loss()
	_ = base
	worst := 0.0
	for _, p := range net.Params() {
		for i := 0; i < p.Value.Len(); i += stride {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lp := lossOnly(net, loss)
			p.Value.Data[i] = orig - eps
			lm := lossOnly(net, loss)
			p.Value.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := p.Grad.Data[i]
			denom := maxf(1e-8, maxf(absf(numeric), absf(analytic)))
			rel := absf(numeric-analytic) / denom
			if rel > worst {
				worst = rel
			}
			if rel > 0.05 && absf(numeric-analytic) > 1e-6 {
				return worst, fmt.Errorf("nn: gradcheck %s[%d]: analytic=%g numeric=%g rel=%.3g",
					p.Name, i, analytic, numeric, rel)
			}
		}
	}
	return worst, nil
}

// lossOnly evaluates the loss without letting the closure's backward pass
// pollute the analytic gradients under test: gradients are saved/restored.
func lossOnly(net *Sequential, loss func() float64) float64 {
	saved := make([][]float64, 0)
	for _, p := range net.Params() {
		saved = append(saved, append([]float64(nil), p.Grad.Data...))
	}
	v := loss()
	for i, p := range net.Params() {
		copy(p.Grad.Data, saved[i])
	}
	return v
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
