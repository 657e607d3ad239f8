package nn

import (
	"fmt"
	"math"
	"testing"

	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// TestDenseBackwardBitIdenticalToScalarReference pins Dense.Backward's bits
// against plain loops: W.Grad[i][j] gains Σ_r x[r][i]·dY[r][j] and B.Grad[j]
// gains Σ_r dY[r][j], each sum one chain from +0 over r ascending added to
// the Grad it finds (dirty, and again on a second call), and dx[r][i] is
// Σ_j dY[r][j]·W[i][j] from +0, assigned. Shapes: the fleet MLP's three
// layers at batch 4, a conv head (24 channels to 10 classes at batch 50),
// and odd widths on every side of the input gradient's four-column blocks.
func TestDenseBackwardBitIdenticalToScalarReference(t *testing.T) {
	for _, s := range []struct{ batch, in, out int }{
		{4, 4, 16}, {4, 16, 16}, {4, 16, 4},
		{50, 24, 10},
		{1, 1, 1}, {3, 5, 7}, {2, 6, 9}, {5, 7, 3},
	} {
		g := rng.New(uint64(100*s.batch + 10*s.in + s.out))
		d := NewDense("fc", s.in, s.out, g)
		g.FillNormal(d.B.Value.Data, 1)
		g.FillNormal(d.W.Grad.Data, 1)
		g.FillNormal(d.B.Grad.Data, 1)
		wGrad := append([]float64(nil), d.W.Grad.Data...)
		bGrad := append([]float64(nil), d.B.Grad.Data...)
		for call := 0; call < 2; call++ {
			what := fmt.Sprintf("batch %d in %d out %d call %d", s.batch, s.in, s.out, call)
			x, dY := tensor.New(s.batch, s.in), tensor.New(s.batch, s.out)
			g.FillNormal(x.Data, 1)
			g.FillNormal(dY.Data, 1)
			x.Data[0] = 0 // an exact zero, as after a ReLU
			d.Forward(x, true)
			dx := d.Backward(dY)
			for i := 0; i < s.in; i++ {
				for j := 0; j < s.out; j++ {
					sum := 0.0
					for r := 0; r < s.batch; r++ {
						sum = math.FMA(x.Data[r*s.in+i], dY.Data[r*s.out+j], sum)
					}
					wGrad[i*s.out+j] += sum
				}
			}
			for j := range bGrad {
				sum := 0.0
				for r := 0; r < s.batch; r++ {
					sum += dY.Data[r*s.out+j]
				}
				bGrad[j] += sum
			}
			want := make([]float64, s.batch*s.in)
			for r := 0; r < s.batch; r++ {
				for i := 0; i < s.in; i++ {
					sum := 0.0
					for j := 0; j < s.out; j++ {
						sum += dY.Data[r*s.out+j] * d.W.Value.Data[i*s.out+j]
					}
					want[r*s.in+i] = sum
				}
			}
			for name, pair := range map[string][2][]float64{
				"W.Grad": {d.W.Grad.Data, wGrad}, "B.Grad": {d.B.Grad.Data, bGrad}, "dx": {dx.Data, want},
			} {
				for k := range pair[1] {
					if math.Float64bits(pair[0][k]) != math.Float64bits(pair[1][k]) {
						t.Fatalf("%s: %s[%d] = %x, loops give %x", what, name, k, pair[0][k], pair[1][k])
					}
				}
			}
		}
	}
}
