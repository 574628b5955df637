package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// spanSchema names the -spans file format.
const spanSchema = "hpmp-bench-spans/v1"

// span is one host-time interval recorded around a call into a layer.
// Spans of one request (a daemon job, an experiment, a replay mode) share
// Request; Parent is the id of the span that caused it (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Request string `json:"request,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps the traced run's spans in memory until the run ends. A nil
// *spanLog records nothing, so the untraced run pays one nil check per
// span site. Safe for concurrent use.
type spanLog struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// begin opens a span and returns its id (0 on a nil log).
func (l *spanLog) begin(name string, parent int, request string) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.base).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name,
		Request: request, StartNS: now, EndNS: now})
	return len(l.spans)
}

// end closes the span begin returned.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.base).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].EndNS = now
	l.mu.Unlock()
}

// add records an interval measured elsewhere, such as a server-side
// timeline entry, and returns its id (0 on a nil log).
func (l *spanLog) add(name string, parent int, request string, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name,
		Request: request, StartNS: start.Sub(l.base).Nanoseconds(), EndNS: end.Sub(l.base).Nanoseconds()})
	return len(l.spans)
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes groups the spans by name. A span's self time is its duration
// minus the part of it that its children cover.
func (l *spanLog) selfTimes() []layerTime {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[int][]span{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*layerTime{}
	for _, s := range l.spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerTime{Name: s.Name}
			rows[s.Name] = r
		}
		d := time.Duration(s.EndNS - s.StartNS)
		r.Count++
		r.Total += d
		r.Self += d - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// writeSelfTimes prints the self-time table.
func writeSelfTimes(w io.Writer, rows []layerTime) {
	var all time.Duration
	for _, r := range rows {
		all += r.Self
	}
	fmt.Fprintf(w, "%-22s %8s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %8d %12.2f %12.2f %6.1f%%\n", r.Name, r.Count,
			float64(r.Total)/1e6, float64(r.Self)/1e6, 100*ratio(float64(r.Self), float64(all)))
	}
}

// writeFile writes the spans as one JSON document.
func (l *spanLog) writeFile(path, workload string) error {
	l.mu.Lock()
	doc := struct {
		Schema   string `json:"schema"`
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{spanSchema, workload, l.spans}
	data, err := json.MarshalIndent(doc, "", " ")
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
