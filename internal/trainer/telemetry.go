package trainer

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"lcasgd/internal/ps"
	"lcasgd/internal/snapshot"
	"lcasgd/internal/telemetry"
)

// Telemetry collects per-cell recorders across a whole lcexp invocation —
// every experiment cell run under a Profile carrying it gets its own
// telemetry.Recorder (recorders are single-run), and the collector renders
// them into one Chrome trace file (one process lane-group per cell) and one
// metrics document.
//
// Determinism across schedulers: concurrent sweeps (-jobs) complete cells
// in nondeterministic order, so the collector keys cells by ps.ConfigKey —
// repeated runs of the same cell (e.g. the shared SGD baseline of
// several figure panels) keep whichever attached first, which is safe
// because a cell's telemetry is a pure function of its config — and sorts
// cells by label at render time. Output bytes are therefore identical at
// any Profile.Jobs value.
//
// Cells whose recorder was never bound are skipped at render time: a
// -resume sweep loads completed cells from the store without running the
// engine, so they have no telemetry to show.
type Telemetry struct {
	mu    sync.Mutex
	cells []*telemetryCell
	seen  map[string]bool
}

type telemetryCell struct {
	label   string
	key     string
	workers int
	rec     *telemetry.Recorder
}

// NewTelemetry returns an empty collector, ready to hang on Profiles via
// Profile.Telemetry.
func NewTelemetry() *Telemetry {
	return &Telemetry{seen: map[string]bool{}}
}

// attach reserves a recorder for the cell about to run under cfg, or nil
// if an identical cell (same ConfigKey) already holds one.
func (t *Telemetry) attach(cfg ps.Config, key string) *telemetry.Recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.seen[key] {
		return nil
	}
	t.seen[key] = true
	cell := &telemetryCell{
		label: fmt.Sprintf("%s M=%d seed=%d %.12s",
			cfg.Algo, cfg.Workers, cfg.Seed, key),
		key:     key,
		workers: cfg.Workers,
		rec:     telemetry.NewRecorder(),
	}
	t.cells = append(t.cells, cell)
	return cell.rec
}

// rendered returns the bound cells in label order — the deterministic
// projection every output format shares.
func (t *Telemetry) rendered() []*telemetryCell {
	t.mu.Lock()
	defer t.mu.Unlock()
	var cells []*telemetryCell
	for _, c := range t.cells {
		if c.rec.Bound() {
			cells = append(cells, c)
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].label < cells[j].label })
	return cells
}

// Cells reports how many cells hold telemetry (ran through the engine).
func (t *Telemetry) Cells() int { return len(t.rendered()) }

// TraceJSON renders every recorded cell as one Chrome trace-event document:
// one pid (process group) per cell, one tid lane per worker plus the run
// lane — load it in Perfetto / chrome://tracing to see the timelines.
func (t *Telemetry) TraceJSON() ([]byte, error) {
	var runs []telemetry.TraceRun
	for _, c := range t.rendered() {
		runs = append(runs, telemetry.TraceRun{
			Name: c.label, Workers: c.workers, Events: c.rec.Events,
		})
	}
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, runs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteTrace writes the Chrome trace document atomically to path.
func (t *Telemetry) WriteTrace(path string) error {
	b, err := t.TraceJSON()
	if err != nil {
		return err
	}
	return snapshot.WriteFileAtomic(path, b)
}

// metricsCell is the per-cell entry of the metrics JSON document. Field
// order is the document's key order.
type metricsCell struct {
	Label    string             `json:"label"`
	Key      string             `json:"key"`
	Workers  int                `json:"workers"`
	Metrics  *telemetry.Metrics `json:"metrics"`
	Measured []*telemetry.Meter `json:"measured,omitempty"`
}

// MetricsJSON renders every recorded cell's metrics registry as one JSON
// document. includeMeasured selects whether the wall-clock meter group is
// attached; tests comparing runs byte-for-byte pass false, the -metrics-out
// artifact passes true.
func (t *Telemetry) MetricsJSON(includeMeasured bool) ([]byte, error) {
	doc := struct {
		Cells []metricsCell `json:"cells"`
	}{Cells: []metricsCell{}}
	for _, c := range t.rendered() {
		mc := metricsCell{
			Label: c.label, Key: c.key, Workers: c.workers,
			Metrics: c.rec.Metrics,
		}
		if includeMeasured {
			mc.Measured = c.rec.Meters()
		}
		doc.Cells = append(doc.Cells, mc)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// metricsCSV renders the flat cell,section,name,key,value rows of every
// recorded cell, measured meters included.
func (t *Telemetry) metricsCSV() []byte {
	var sb strings.Builder
	sb.WriteString("cell,section,name,key,value\n")
	for _, c := range t.rendered() {
		c.rec.Metrics.AppendCSV(&sb, c.label)
		telemetry.AppendMetersCSV(&sb, c.label, c.rec.Meters())
	}
	return []byte(sb.String())
}

// WriteMetrics writes the metrics dump atomically to path: CSV when the
// path ends in .csv, the JSON document otherwise. Both include the measured
// (wall-clock) group — the artifact is for humans; byte-identity tests use
// MetricsJSON(false).
func (t *Telemetry) WriteMetrics(path string) error {
	if strings.HasSuffix(path, ".csv") {
		return snapshot.WriteFileAtomic(path, t.metricsCSV())
	}
	b, err := t.MetricsJSON(true)
	if err != nil {
		return err
	}
	return snapshot.WriteFileAtomic(path, b)
}
