package nn

import (
	"fmt"
	"math"

	"lcasgd/internal/tensor"
)

// BatchStats exposes a BN layer's latest batch statistics to the package's
// external tests.
func BatchStats(bn *BatchNorm) (mean, vari []float64) { return bn.batchMean, bn.batchVar }

// Scribble fills every buffer the layers of net keep between passes —
// activations, input gradients, the batch norms' per-channel scratch, the
// convolutions' group scratch, to their full capacity — with NaN, so a test
// can show that no pass reads what an earlier one left. A layer type it
// does not know panics.
func Scribble(net *Sequential) {
	var walk func(l Layer)
	walk = func(l Layer) {
		switch v := l.(type) {
		case *Sequential:
			for _, inner := range v.Layers {
				walk(inner)
			}
		case *Residual:
			walk(v.Path)
			if v.Shortcut != nil {
				walk(v.Shortcut)
			}
			nanTensors(v.out, v.dSum, v.dx)
		case *Dense:
			nanTensors(v.out, v.dx)
		case *ReLULayer:
			nanTensors(v.out, v.dx)
		case *GlobalAvgPool:
			nanTensors(v.out, v.dx)
		case *BatchNorm:
			scribbleBN(v)
		case *ConvBN:
			nanTensors(v.pre, v.out, v.dx)
			nanSlices(v.Conv.y, v.Conv.dYT)
			scribbleBN(v.BN)
		default:
			panic(fmt.Sprintf("nn: Scribble does not know %T", l))
		}
	}
	walk(net)
}

// ScribbleLoss fills the loss's probability and gradient buffers with NaN.
func ScribbleLoss(l *SoftmaxCrossEntropy) { nanTensors(l.probs, l.grad) }

func scribbleBN(bn *BatchNorm) {
	nanTensors(bn.xhat, bn.out, bn.dx)
	nanSlices(bn.invStd, bn.sumDy, bn.sumDyXhat, bn.scale)
}

func nanTensors(ts ...*tensor.Tensor) {
	for _, t := range ts {
		if t != nil {
			nanSlices(t.Data[:cap(t.Data)])
		}
	}
}

func nanSlices(vs ...[]float64) {
	for _, v := range vs {
		for i := range v {
			v[i] = math.NaN()
		}
	}
}
