package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the harness made into a layer. Parent is the index
// of the span that was open when this one started, -1 at the top.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the same code runs traced and untraced; it is used from the
// harness's own goroutine only.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// do runs f inside a span and returns f's wall time in seconds.
func (t *tracer) do(name string, f func()) float64 {
	start := time.Now()
	if t == nil {
		f()
		return time.Since(start).Seconds()
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Seconds(), Parent: parent})
	t.open = append(t.open, id)
	f()
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = end.Sub(t.t0).Seconds()
	return end.Sub(start).Seconds()
}

// layerTime is a span name's total and self time: self is the span's
// duration minus what its child spans cover.
type layerTime struct {
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func (t *tracer) layerTimes() []layerTime {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*layerTime{}
	var order []string
	for i, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
			order = append(order, s.Name)
		}
		lt.Calls++
		lt.TotalS += s.End - s.Start
		lt.SelfS += s.End - s.Start - child[i]
	}
	out := make([]layerTime, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// write stores the spans as a Chrome trace-event file and the per-layer
// summary, with the harness's busy-time estimates, beside it.
func (t *tracer) write(dir string, estimates map[string]float64, metrics map[string]metricValue) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type chromeEvent struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args any     `json:"args,omitempty"`
	}
	events := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Ts: s.Start * 1e6, Dur: (s.End - s.Start) * 1e6, Pid: 1, Tid: 1,
			Args: map[string]any{"workload": t.workload, "id": i, "parent": s.Parent},
		})
	}
	if err := writeJSON(filepath.Join(dir, "trace."+t.workload+".json"), events); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "layers."+t.workload+".json"), map[string]any{
		"workload":        t.workload,
		"spans":           t.layerTimes(),
		"busy_estimate_s": estimates,
		"metrics":         metrics,
	})
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// timing summarises per-call wall times: the median, and the highest
// percentile that still has at least ten samples beyond it.
type timing struct {
	N            int
	P50          float64
	Tail, TailAt float64 // the tail value and the percentile it sits at
	Min, Max     float64
}

func summarize(samples []float64) timing {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	t := timing{N: n, P50: median(s), Min: s[0], Max: s[n-1], Tail: median(s), TailAt: 50}
	if n > 20 {
		t.Tail = s[n-11]
		t.TailAt = 100 * float64(n-10) / float64(n)
	}
	return t
}

// median expects sorted, non-empty input.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timeCalls calls f for at least budget and at least 21 times, and returns
// the per-call wall times in the given unit (seconds per unit).
func timeCalls(budget time.Duration, unit float64, f func()) timing {
	f() // first call fills caches and lazily sized buffers
	var samples []float64
	start := time.Now()
	for len(samples) < 21 || time.Since(start) < budget {
		t := time.Now()
		f()
		samples = append(samples, time.Since(t).Seconds()/unit)
	}
	return summarize(samples)
}
