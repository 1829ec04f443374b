package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// WriteChrome renders the buffer in the Chrome trace_event JSON format
// (the "JSON Object Format": {"traceEvents": [...]}), loadable in
// chrome://tracing and https://ui.perfetto.dev. Timestamps are converted
// from picoseconds to the format's microseconds (fractional).
//
// Each distinct Who becomes one named thread track under a single process;
// tracks are numbered in order of first appearance, which is deterministic
// because the simulation is.
func (t *Tracer) WriteChrome(w io.Writer) error {
	t.warnIfLossy()
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	bw.WriteString(`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"sim"}}`)
	tids := make(map[string]int)
	t.Log().Each(func(ev *Event) {
		tid, ok := tids[ev.Who]
		if !ok {
			tid = len(tids) + 1
			tids[ev.Who] = tid
			fmt.Fprintf(bw, `,{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%s}}`,
				tid, jsonString(ev.Who))
		}
		bw.WriteString(`,{"name":`)
		bw.WriteString(jsonString(ev.Name))
		fmt.Fprintf(bw, `,"ph":"%c","pid":1,"tid":%d,"ts":%s`, ev.Ph, tid, psToUS(ev.Ts))
		switch ev.Ph {
		case PhaseSpan:
			fmt.Fprintf(bw, `,"dur":%s`, psToUS(ev.Dur))
		case PhaseInstant:
			bw.WriteString(`,"s":"t"`)
		}
		if len(ev.Attrs) > 0 {
			bw.WriteString(`,"args":`)
			writeAttrs(bw, ev.Attrs)
		}
		bw.WriteByte('}')
	})
	bw.WriteString("]}\n")
	return bw.Flush()
}

// warnIfLossy prints the tracer's loss warning to stderr. Exporting a lossy
// trace is legal (the spans that did fit are still useful in a viewer), but
// it must never pass silently: downstream causal analysis depends on a
// complete DAG.
func (t *Tracer) warnIfLossy() {
	if msg := t.LossWarning(); msg != "" {
		fmt.Fprintln(os.Stderr, msg)
	}
}

// WriteJSONL renders the buffer as one JSON object per line with raw
// picosecond timestamps, for jq-style processing. The first line is a
// metadata record carrying the drop counters so offline tools (cmd/tracetool)
// can tell a complete trace from a truncated one.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	t.warnIfLossy()
	bw := bufio.NewWriter(w)
	d := t.DropStats()
	fmt.Fprintf(bw, `{"ph":"M","name":"trace.meta","drops":{"spans":%d,"instants":%d,"counters":%d,"causal_edges":%d}}`+"\n",
		d.Spans, d.Instants, d.Counters, d.CausalEdges)
	t.Log().Each(func(ev *Event) {
		fmt.Fprintf(bw, `{"ph":"%c","who":%s,"name":%s,"ts_ps":%d`,
			ev.Ph, jsonString(ev.Who), jsonString(ev.Name), ev.Ts)
		if ev.Ph == PhaseSpan {
			fmt.Fprintf(bw, `,"dur_ps":%d`, ev.Dur)
		}
		if len(ev.Attrs) > 0 {
			bw.WriteString(`,"attrs":`)
			writeAttrs(bw, ev.Attrs)
		}
		bw.WriteString("}\n")
	})
	return bw.Flush()
}

// WriteChromeFile writes the Chrome trace to path.
func (t *Tracer) WriteChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteJSONLFile writes the JSONL trace to path.
func (t *Tracer) WriteJSONLFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeAttrs renders attributes as a JSON object, preserving record order.
func writeAttrs(w *bufio.Writer, attrs []Attr) {
	w.WriteByte('{')
	for i, a := range attrs {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(jsonString(a.Key))
		w.WriteByte(':')
		switch a.kind {
		case attrString:
			w.WriteString(jsonString(a.str))
		case attrInt:
			w.WriteString(strconv.FormatInt(a.num, 10))
		case attrFloat:
			w.WriteString(strconv.FormatFloat(a.float(), 'g', -1, 64))
		case attrBool:
			w.WriteString(strconv.FormatBool(a.num != 0))
		}
	}
	w.WriteByte('}')
}

// jsonString marshals a string with full escaping.
func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// psToUS formats a picosecond quantity as trace_event microseconds.
func psToUS(ps int64) string {
	return strconv.FormatFloat(float64(ps)/1e6, 'f', -1, 64)
}
