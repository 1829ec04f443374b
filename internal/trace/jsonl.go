package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// ReadJSONL parses a trace written by WriteJSONL back into a log plus the
// drop counters from the metadata line. Traces written before the metadata
// line existed parse with zero DropStats. Attribute values round-trip with
// their kinds (integers stay integers), which causal analysis depends on for
// the Self/Cause refs.
func ReadJSONL(r io.Reader) (*Log, DropStats, error) {
	var (
		log   = &Log{}
		drops DropStats
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
			Attrs map[string]json.RawMessage
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
			ev.Attrs = parseAttrs(log, raw.Attrs)
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

// parseAttrs reconstructs typed attributes from raw JSON values into the
// log's arena. Map order is not record order; keys are sorted so re-parsing
// is deterministic (analysis never depends on attribute position).
func parseAttrs(log *Log, raw map[string]json.RawMessage) []Attr {
	keys := make([]string, 0, len(raw))
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	attrs := log.reserve(len(keys))
	k := 0
	for _, key := range keys {
		v := raw[key]
		var s string
		if json.Unmarshal(v, &s) == nil {
			attrs[k] = Str(key, s)
			k++
			continue
		}
		var b bool
		if json.Unmarshal(v, &b) == nil {
			attrs[k] = Bool(key, b)
			k++
			continue
		}
		var n json.Number
		if json.Unmarshal(v, &n) == nil {
			// WriteJSONL never writes an integer as "-0", so that
			// literal is the float negative zero.
			if i, err := n.Int64(); err == nil && n != "-0" {
				attrs[k] = I64(key, i)
				k++
			} else if f, err := n.Float64(); err == nil {
				attrs[k] = F64(key, f)
				k++
			}
		}
	}
	return log.keep(k)
}
