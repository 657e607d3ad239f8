package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Metrics is the deterministic instrument registry of one run: counters,
// gauges, fixed-bucket histograms, per-worker vectors, and a gauge time
// series sampled at eval boundaries. Every value here derives from
// event-loop state and virtual time only, so two equivalent runs (across
// backends, across a checkpoint/resume split) hold bit-identical
// registries — the property the engine's telemetry tests diff for.
//
// Instruments are registered once, by the engine, in a fixed order; the
// registration order is the serialization order, so the checkpoint codec
// can restore by position and validate by name.
//
// The struct tags are the JSON dump's layout (MarshalJSON): encoding/json
// emits struct fields in declaration order, which is what makes the dump
// byte-stable.
type Metrics struct {
	Counters []*Counter   `json:"counters"`
	Gauges   []*Gauge     `json:"gauges"`
	Hists    []*Histogram `json:"histograms"`
	Vecs     []*WorkerVec `json:"workers"`
	Series   []Sample     `json:"-"` // dumped as columns and rows, see MarshalJSON
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// Counter registers a monotonically increasing counter.
func (m *Metrics) Counter(name string) *Counter {
	c := &Counter{Name: name}
	m.Counters = append(m.Counters, c)
	return c
}

// Gauge registers a point-in-time value, captured into Series by Sample.
func (m *Metrics) Gauge(name string) *Gauge {
	g := &Gauge{Name: name}
	m.Gauges = append(m.Gauges, g)
	return g
}

// Histogram registers a fixed-bucket histogram. bounds are the inclusive
// upper bounds of the first len(bounds) buckets; an implicit +Inf bucket
// catches the rest. Bounds are fixed at registration so two runs bucket
// identically.
func (m *Metrics) Histogram(name string, bounds []float64) *Histogram {
	h := &Histogram{Name: name, Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}
	m.Hists = append(m.Hists, h)
	return h
}

// WorkerVec registers a per-worker counter vector of n slots.
func (m *Metrics) WorkerVec(name string, n int) *WorkerVec {
	v := &WorkerVec{Name: name, N: make([]uint64, n)}
	m.Vecs = append(m.Vecs, v)
	return v
}

// Sample appends one row to the gauge time series: the epoch and virtual
// time of the boundary plus every registered gauge's current value, in
// registration order.
func (m *Metrics) Sample(epoch int, atMs float64) {
	vals := make([]float64, len(m.Gauges))
	for i, g := range m.Gauges {
		vals[i] = g.V
	}
	m.Series = append(m.Series, Sample{Epoch: epoch, AtMs: atMs, Values: vals})
}

// Counter is a monotonically increasing count.
type Counter struct {
	Name string `json:"name"`
	V    uint64 `json:"value"`
}

// Inc adds one.
func (c *Counter) Inc() { c.V++ }

// Add adds d.
func (c *Counter) Add(d uint64) { c.V += d }

// Gauge is a point-in-time value; Sample snapshots all gauges at once.
type Gauge struct {
	Name string  `json:"name"`
	V    float64 `json:"value"`
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.V = v }

// Histogram is a fixed-bucket distribution with total count and sum.
type Histogram struct {
	Name   string    `json:"name"`
	Bounds []float64 `json:"le"` // upper bounds; Counts has one extra +Inf bucket
	Counts []uint64  `json:"counts"`
	Total  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Observe folds one observation into its bucket.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.Bounds) && v > h.Bounds[i] {
		i++
	}
	h.Counts[i]++
	h.Total++
	h.Sum += v
}

// WorkerVec is a per-worker counter vector.
type WorkerVec struct {
	Name string   `json:"name"`
	N    []uint64 `json:"per_worker"`
}

// Inc adds one to worker m's slot.
func (v *WorkerVec) Inc(m int) { v.N[m]++ }

// Sample is one gauge-series row.
type Sample struct {
	Epoch  int
	AtMs   float64
	Values []float64 // one per registered gauge, in registration order
}

// --- dumps ---

// MarshalJSON renders the registry as its dump document: the instruments
// under their struct tags, then the gauge series as a table.
func (m *Metrics) MarshalJSON() ([]byte, error) {
	type instruments Metrics // the tagged fields without this method
	tab := seriesTable{
		Columns: append([]string{"epoch", "at_ms"}, gaugeNames(m)...),
		Rows:    make([][]float64, len(m.Series)),
	}
	for i, s := range m.Series {
		tab.Rows[i] = append([]float64{float64(s.Epoch), s.AtMs}, s.Values...)
	}
	return json.Marshal(struct {
		*instruments
		Series seriesTable `json:"series"`
	}{(*instruments)(m), tab})
}

// seriesTable is the gauge series' dump shape: one row per Sample.
type seriesTable struct {
	Columns []string    `json:"columns"` // epoch, at_ms, then gauge names
	Rows    [][]float64 `json:"rows"`
}

func gaugeNames(m *Metrics) []string {
	names := make([]string, len(m.Gauges))
	for i, g := range m.Gauges {
		names[i] = g.Name
	}
	return names
}

// AppendCSV appends the registry as flat CSV rows — section,name,key,value —
// prefixed with the given cell label column. Deterministic: fixed section
// order, registration order within each.
func (m *Metrics) AppendCSV(sb *strings.Builder, cell string) {
	row := func(section, name, key string, v float64) {
		sb.WriteString(csvQuote(cell))
		sb.WriteByte(',')
		sb.WriteString(section)
		sb.WriteByte(',')
		sb.WriteString(csvQuote(name))
		sb.WriteByte(',')
		sb.WriteString(csvQuote(key))
		sb.WriteByte(',')
		sb.WriteString(formatFloat(v))
		sb.WriteByte('\n')
	}
	for _, c := range m.Counters {
		row("counter", c.Name, "", float64(c.V))
	}
	for _, g := range m.Gauges {
		row("gauge", g.Name, "", g.V)
	}
	for _, h := range m.Hists {
		for i, n := range h.Counts {
			key := "le_inf"
			if i < len(h.Bounds) {
				key = "le_" + formatFloat(h.Bounds[i])
			}
			row("hist", h.Name, key, float64(n))
		}
		row("hist", h.Name, "count", float64(h.Total))
		row("hist", h.Name, "sum", h.Sum)
	}
	for _, v := range m.Vecs {
		for mIdx, n := range v.N {
			row("worker", v.Name, "w"+strconv.Itoa(mIdx), float64(n))
		}
	}
	cols := gaugeNames(m)
	for _, s := range m.Series {
		prefix := "epoch_" + strconv.Itoa(s.Epoch)
		row("series", prefix, "at_ms", s.AtMs)
		for i, val := range s.Values {
			row("series", prefix, cols[i], val)
		}
	}
}

// AppendMetersCSV appends the measured-group rows to the same flat layout.
func AppendMetersCSV(sb *strings.Builder, cell string, meters []*Meter) {
	for _, mt := range meters {
		for _, kv := range []struct {
			key string
			v   float64
		}{{"n", float64(mt.N)}, {"sum", mt.Sum}, {"max", mt.Max}} {
			sb.WriteString(csvQuote(cell))
			sb.WriteString(",measured,")
			sb.WriteString(csvQuote(mt.Name))
			sb.WriteByte(',')
			sb.WriteString(kv.key)
			sb.WriteByte(',')
			sb.WriteString(formatFloat(kv.v))
			sb.WriteByte('\n')
		}
	}
}

// formatFloat renders a float compactly and stably (integers lose the
// trailing ".0", matching strconv's shortest form).
func formatFloat(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fmt.Sprint(v)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// csvQuote quotes a field only when it needs it.
func csvQuote(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
