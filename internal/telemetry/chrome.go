package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// This file renders recorded event traces in the Chrome trace-event format
// (the JSON array flavor), loadable in Perfetto / chrome://tracing. Each
// run becomes one "process" whose name is the cell label; each worker is a
// thread lane (tid = rank) and run-scoped events (barriers, checkpoints,
// server updates) land on a dedicated "run" lane above the workers.
//
// Timestamps: the trace format wants microseconds; the engine records
// virtual milliseconds, so ts = At×1000 and the timeline reads in simulated
// time, not wall time. The rendering is deterministic — ordered structs,
// strconv floats, insertion-ordered args — so equivalent runs export
// byte-identical files.

// TraceRun is one run (cell) to export.
type TraceRun struct {
	Name    string // process label shown in the UI
	Workers int    // lane count; the run lane is tid Workers
	Events  []Event
}

// chromeEvent is one trace-format record. Field order is the output order.
type chromeEvent struct {
	Name string     `json:"name"`
	Ph   string     `json:"ph"`
	Ts   jsonFloat  `json:"ts"`
	Dur  *jsonFloat `json:"dur,omitempty"`
	Pid  int        `json:"pid"`
	Tid  int        `json:"tid"`
	S    string     `json:"s,omitempty"`
	Args *args      `json:"args,omitempty"`
}

// jsonFloat marshals via strconv's shortest form, keeping output stable and
// compact ("12.5", not "1.25e+01" or "12.500000").
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	return []byte(formatFloat(float64(f))), nil
}

// args is an insertion-ordered string→value list (a map would be sorted by
// encoding/json, but insertion order reads better and is just as stable).
type args struct {
	keys []string
	vals []any
}

func (a *args) add(k string, v any) *args {
	a.keys = append(a.keys, k)
	a.vals = append(a.vals, v)
	return a
}

func (a *args) MarshalJSON() ([]byte, error) {
	out := []byte{'{'}
	for i, k := range a.keys {
		if i > 0 {
			out = append(out, ',')
		}
		kb, _ := json.Marshal(k)
		vb, err := json.Marshal(a.vals[i])
		if err != nil {
			return nil, err
		}
		out = append(out, kb...)
		out = append(out, ':')
		out = append(out, vb...)
	}
	return append(out, '}'), nil
}

// WriteChromeTrace streams the runs as one trace-event JSON array. Every
// worker lane gets thread metadata whether or not it recorded events, so
// fleets with idle ranks still render with a full set of ordered lanes.
func WriteChromeTrace(w io.Writer, runs []TraceRun) error {
	enc := &traceEnc{w: w}
	enc.raw("[")
	for pid, run := range runs {
		enc.event(chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: (&args{}).add("name", run.Name),
		})
		for tid := 0; tid <= run.Workers; tid++ {
			lane := "worker " + strconv.Itoa(tid)
			if tid == run.Workers {
				lane = "run"
			}
			enc.event(chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: (&args{}).add("name", lane),
			})
		}
		for _, ev := range run.Events {
			enc.event(renderEvent(pid, run.Workers, ev))
		}
	}
	enc.raw("]\n")
	return enc.err
}

// renderEvent maps one engine event to its trace record: spans become "X"
// complete events, instants become thread-scoped "i" events, and the
// kind-specific A/B payload unpacks into named args.
func renderEvent(pid, workers int, ev Event) chromeEvent {
	tid := int(ev.Worker)
	if tid < 0 {
		tid = workers // run-global lane
	}
	ce := chromeEvent{Name: ev.Kind.String(), Ts: jsonFloat(ev.At * 1000), Pid: pid, Tid: tid}
	if ev.Dur > 0 {
		ce.Ph = "X"
		d := jsonFloat(ev.Dur * 1000)
		ce.Dur = &d
	} else {
		ce.Ph = "i"
		ce.S = "t"
	}
	switch ev.Kind {
	case KDispatch:
		ops := [...]string{"gradient", "forward", "backward"}
		op := "unknown"
		if int(ev.A) < len(ops) {
			op = ops[ev.A]
		}
		ce.Args = (&args{}).add("op", op)
	case KCommit:
		ce.Args = (&args{}).add("staleness", ev.A)
	case KGossip:
		ce.Args = (&args{}).add("partner", ev.A).add("lag", ev.B)
	case KPhaseShift:
		ce.Args = (&args{}).
			add("comp_scale", jsonFloat(float64(ev.A)/1e6)).
			add("comm_scale", jsonFloat(float64(ev.B)/1e6))
	case KCheckpoint:
		ce.Args = (&args{}).add("epoch", ev.A)
	case KCompensate:
		ce.Args = (&args{}).add("k", ev.A).add("scale", jsonFloat(float64(ev.B)/1e6))
	}
	return ce
}

// traceEnc streams comma-separated records, capturing the first error.
type traceEnc struct {
	w     io.Writer
	err   error
	wrote bool
}

func (e *traceEnc) raw(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

func (e *traceEnc) event(ce chromeEvent) {
	if e.err != nil {
		return
	}
	b, err := json.Marshal(ce)
	if err != nil {
		e.err = fmt.Errorf("telemetry: marshal trace event: %w", err)
		return
	}
	if e.wrote {
		e.raw(",\n")
	} else {
		e.raw("\n")
	}
	e.wrote = true
	e.raw(string(b))
}
