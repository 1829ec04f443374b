package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// ReadJSONL parses a trace written by WriteJSONL back into a log plus the
// drop counters from the metadata line. Traces written before the metadata
// line existed parse with zero DropStats. Attributes round-trip in record
// order, repeated keys included, and with their kinds (integers stay
// integers), which causal analysis depends on for the Self/Cause refs.
func ReadJSONL(r io.Reader) (*Log, DropStats, error) {
	var (
		log   = &Log{}
		drops DropStats
		buf   []Attr
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var raw struct {
			Ph    string `json:"ph"`
			Who   string `json:"who"`
			Name  string `json:"name"`
			Ts    int64  `json:"ts_ps"`
			Dur   int64  `json:"dur_ps"`
			Attrs json.RawMessage
			Drops *struct {
				Spans       int64 `json:"spans"`
				Instants    int64 `json:"instants"`
				Counters    int64 `json:"counters"`
				CausalEdges int64 `json:"causal_edges"`
			} `json:"drops"`
		}
		if err := json.Unmarshal(line, &raw); err != nil {
			return nil, drops, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		if len(raw.Ph) != 1 {
			return nil, drops, fmt.Errorf("trace: line %d: bad phase %q", lineNo, raw.Ph)
		}
		if raw.Ph[0] == 'M' {
			if raw.Drops != nil {
				drops = DropStats{
					Spans:       raw.Drops.Spans,
					Instants:    raw.Drops.Instants,
					Counters:    raw.Drops.Counters,
					CausalEdges: raw.Drops.CausalEdges,
				}
			}
			continue
		}
		ev := log.push()
		*ev = Event{Ph: raw.Ph[0], Who: raw.Who, Name: raw.Name, Ts: raw.Ts, Dur: raw.Dur}
		if len(raw.Attrs) > 0 {
			attrs, err := parseAttrs(log, raw.Attrs, &buf)
			if err != nil {
				return nil, drops, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			ev.Attrs = attrs
		}
	}
	if err := sc.Err(); err != nil {
		return nil, drops, fmt.Errorf("trace: %w", err)
	}
	return log, drops, nil
}

// ReadJSONLFile reads the JSONL trace at path.
func ReadJSONLFile(path string) (*Log, DropStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, DropStats{}, err
	}
	defer f.Close()
	log, drops, err := ReadJSONL(f)
	if err != nil {
		return nil, drops, fmt.Errorf("%s: %w", path, err)
	}
	return log, drops, nil
}

// parseAttrs reconstructs typed attributes from a raw JSON object into the
// log's arena, in record order and keeping repeated keys: an event with
// two causes carries two causal.cause attributes, and the causal DAG needs
// both. buf is scratch space reused across events.
func parseAttrs(log *Log, raw json.RawMessage, buf *[]Attr) ([]Attr, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return nil, fmt.Errorf("attrs: not an object")
	}
	attrs := (*buf)[:0]
	for dec.More() {
		t, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("attrs: %w", err)
		}
		key := t.(string) // object keys always decode as strings
		if t, err = dec.Token(); err != nil {
			return nil, fmt.Errorf("attrs: %w", err)
		}
		switch v := t.(type) {
		case string:
			attrs = append(attrs, Str(key, v))
		case bool:
			attrs = append(attrs, Bool(key, v))
		case json.Number:
			// WriteJSONL never writes an integer as "-0", so that
			// literal is the float negative zero.
			if i, err := v.Int64(); err == nil && v != "-0" {
				attrs = append(attrs, I64(key, i))
			} else if f, err := v.Float64(); err == nil {
				attrs = append(attrs, F64(key, f))
			} else {
				return nil, fmt.Errorf("attrs: %q: %w", key, err)
			}
		default:
			return nil, fmt.Errorf("attrs: %q is not a string, number or bool", key)
		}
	}
	*buf = attrs
	copy(log.reserve(len(attrs)), attrs)
	return log.keep(len(attrs)), nil
}
