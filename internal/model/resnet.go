// Package model builds the network architectures used in the reproduction:
// scaled-down residual convolutional networks standing in for ResNet-18 and
// ResNet-50 (see DESIGN.md for the substitution rationale), plus a small
// MLP used by quick tests.
package model

import (
	"fmt"

	"lcasgd/internal/nn"
	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// Config describes a ResNetLite instance.
type Config struct {
	Name       string
	InC        int   // input channels
	InH, InW   int   // input spatial size
	Stem       int   // stem channel width
	StageReps  []int // residual blocks per stage; channels double each stage
	NumClasses int
}

// ResNetLite18 returns the configuration standing in for ResNet-18 on
// CIFAR-10-scale inputs: a conv stem and three stages of basic blocks with
// channel doubling, BN after every conv, and a global-average-pool head.
func ResNetLite18(numClasses int) Config {
	return Config{
		Name: "resnetlite18", InC: 3, InH: 8, InW: 8,
		Stem: 8, StageReps: []int{2, 2, 2}, NumClasses: numClasses,
	}
}

// ResNetLite50 returns the deeper/wider configuration standing in for
// ResNet-50 on ImageNet-scale inputs.
func ResNetLite50(numClasses int) Config {
	return Config{
		Name: "resnetlite50", InC: 3, InH: 12, InW: 12,
		Stem: 12, StageReps: []int{3, 4, 3}, NumClasses: numClasses,
	}
}

// Build materializes the network with deterministic initialization from g.
// Two calls with generators in the same state produce identical weights —
// the property the experiment harness relies on to start every algorithm
// from the same random model, as the paper's Section 5 requires.
func (c Config) Build(g *rng.RNG) *nn.Sequential {
	if len(c.StageReps) == 0 {
		panic("model: config needs at least one stage")
	}
	net := nn.NewSequential()

	// Stem: 3x3 conv, BN, ReLU at full resolution.
	geom := tensor.ConvGeom{InC: c.InC, InH: c.InH, InW: c.InW, KH: 3, KW: 3, Stride: 1, Pad: 1}
	h, w, ch := c.InH, c.InW, c.Stem
	net.Add(convBN(c.Name+".stem", c.Name+".stem.bn", geom, ch, true, g))

	for si, reps := range c.StageReps {
		outCh := c.Stem << si
		for r := 0; r < reps; r++ {
			stride := 1
			if si > 0 && r == 0 {
				stride = 2 // downsample entering each stage after the first
			}
			name := fmt.Sprintf("%s.s%d.b%d", c.Name, si, r)
			block, nh, nw := basicBlock(name, ch, h, w, outCh, stride, g)
			net.Add(block)
			ch, h, w = outCh, nh, nw
		}
	}

	net.Add(nn.NewGlobalAvgPool(ch, h*w))
	net.Add(nn.NewDense(c.Name+".fc", ch, c.NumClasses, g))
	return net
}

// basicBlock is the ResNet v1 basic block: conv3x3-BN-ReLU-conv3x3-BN with
// an identity skip, or a 1x1-conv-BN projection when the shape changes.
func basicBlock(name string, inCh, h, w, outCh, stride int, g *rng.RNG) (*nn.Residual, int, int) {
	g1 := tensor.ConvGeom{InC: inCh, InH: h, InW: w, KH: 3, KW: 3, Stride: stride, Pad: 1}
	oh, ow := g1.OutH(), g1.OutW()
	g2 := tensor.ConvGeom{InC: outCh, InH: oh, InW: ow, KH: 3, KW: 3, Stride: 1, Pad: 1}
	path := nn.NewSequential(
		convBN(name+".c1", name+".bn1", g1, outCh, true, g),
		convBN(name+".c2", name+".bn2", g2, outCh, false, g),
	)
	var shortcut *nn.Sequential
	if stride != 1 || inCh != outCh {
		gs := tensor.ConvGeom{InC: inCh, InH: h, InW: w, KH: 1, KW: 1, Stride: stride, Pad: 0}
		shortcut = nn.NewSequential(convBN(name+".proj", name+".projbn", gs, outCh, false, g))
	}
	return nn.NewResidual(path, shortcut), oh, ow
}

// convBN is a convolution and its batch norm, with the ReLU after them if
// relu, as one nn.ConvBN unit; its parameters keep the layered stack's
// names.
func convBN(conv, bn string, geom tensor.ConvGeom, outCh int, relu bool, g *rng.RNG) *nn.ConvBN {
	return nn.NewConvBN(nn.NewConv2D(conv, geom, outCh, g), nn.NewBatchNorm(bn, outCh, geom.ColRows()), relu)
}

// MLP returns a small two-hidden-layer perceptron with BN, used by unit
// tests and the quickstart example where a conv net would be overkill.
func MLP(name string, in, hidden, classes int, g *rng.RNG) *nn.Sequential {
	return nn.NewSequential(
		nn.NewDense(name+".fc1", in, hidden, g),
		nn.NewBatchNorm(name+".bn1", hidden, 1),
		nn.NewReLU(hidden),
		nn.NewDense(name+".fc2", hidden, hidden, g),
		nn.NewBatchNorm(name+".bn2", hidden, 1),
		nn.NewReLU(hidden),
		nn.NewDense(name+".fc3", hidden, classes, g),
	)
}
