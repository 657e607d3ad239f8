package opt

import (
	"math"
	"testing"
)

func TestStepScheduleBoundaries(t *testing.T) {
	sch := StepSchedule{Base: 0.3, Boundaries: []int{80, 120}, Factor: 10}
	cases := []struct {
		epoch int
		want  float64
	}{
		{0, 0.3}, {79, 0.3}, {80, 0.03}, {119, 0.03}, {120, 0.003}, {159, 0.003},
	}
	for _, c := range cases {
		if got := sch.At(c.epoch); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("lr at epoch %d = %v, want %v", c.epoch, got, c.want)
		}
	}
}

func TestNewPaperScheduleProportions(t *testing.T) {
	sch := NewPaperSchedule(0.3, 160)
	if sch.Boundaries[0] != 80 || sch.Boundaries[1] != 120 {
		t.Fatalf("boundaries %v, want [80 120]", sch.Boundaries)
	}
	sch2 := NewPaperSchedule(0.1, 120)
	if sch2.Boundaries[0] != 60 || sch2.Boundaries[1] != 90 {
		t.Fatalf("boundaries %v, want [60 90]", sch2.Boundaries)
	}
}
