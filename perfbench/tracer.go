package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced call: its name, its parent span (0 for a root), the
// request it belongs to, the replay phase it ran in, and its interval in
// nanoseconds since the tracer started. N is the number of queries of a
// request span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// openSpan is a span that has begun and not yet ended.
type openSpan struct {
	id, parent, req int64
	name, phase     string
	start           int64
}

// tracer keeps spans in memory. A tracer with on == false records nothing
// and costs one branch per call: the untraced replay runs through it.
type tracer struct {
	on    bool
	t0    time.Time
	ids   atomic.Int64
	phase atomic.Pointer[string]

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, t0: time.Now()}
	t.setPhase("")
	return t
}

func (t *tracer) setPhase(p string) { t.phase.Store(&p) }

func (t *tracer) newReq() int64 {
	if !t.on {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) begin(name string, parent, req int64) openSpan {
	if !t.on {
		return openSpan{}
	}
	return openSpan{id: t.ids.Add(1), parent: parent, req: req, name: name, phase: *t.phase.Load(), start: int64(time.Since(t.t0))}
}

func (t *tracer) end(o openSpan) { t.endN(o, 0) }

func (t *tracer) endN(o openSpan, n int) {
	if !t.on {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: o.id, Parent: o.parent, Req: o.req, Name: o.name, Phase: o.phase, Start: o.start, End: end, N: n})
	t.mu.Unlock()
}

// add records a span whose interval is known, such as the pool queue wait
// Engine.DoWait reports at the start of its own span.
func (t *tracer) add(name string, parent, req, start, end int64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Phase: *t.phase.Load(), Start: start, End: end})
	t.mu.Unlock()
}

// selfTimes maps each span id to its duration minus the part of its
// interval that its children cover.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerRow is one span name's totals in the written span tree.
type layerRow struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// layerTree aggregates spans by (parent name, name): the span tree with
// each layer's total and self time.
func layerTree(spans []span) []layerRow {
	self := selfTimes(spans)
	names := make(map[int64]string, len(spans))
	for _, s := range spans {
		names[s.ID] = s.Name
	}
	idx := map[[2]string]int{}
	var rows []layerRow
	for _, s := range spans {
		key := [2]string{names[s.Parent], s.Name}
		i, ok := idx[key]
		if !ok {
			i = len(rows)
			idx[key] = i
			rows = append(rows, layerRow{Name: s.Name, Parent: key[0]})
		}
		rows[i].Count++
		rows[i].TotalMs += float64(s.dur()) / 1e6
		rows[i].SelfMs += float64(self[s.ID]) / 1e6
	}
	slices.SortFunc(rows, func(a, b layerRow) int {
		return cmp.Or(cmp.Compare(a.Parent, b.Parent), cmp.Compare(a.Name, b.Name))
	})
	return rows
}

// writeTrace writes the span tree, its per-layer totals and the tracing
// overhead as JSON to path, and prints the layer table to w.
func writeTrace(path string, w io.Writer, workload string, seed uint64, overheadPct float64, spans []span) error {
	rows := layerTree(spans)
	fmt.Fprintf(w, "trace %s seed %d: %d spans, overhead %.1f%% (traced vs untraced replay)\n", workload, seed, len(spans), overheadPct)
	fmt.Fprintf(w, "  %-22s %-22s %9s %12s %12s\n", "parent", "layer", "count", "total_ms", "self_ms")
	for _, r := range rows {
		parent := r.Parent
		if parent == "" {
			parent = "-"
		}
		fmt.Fprintf(w, "  %-22s %-22s %9d %12.3f %12.3f\n", parent, r.Name, r.Count, r.TotalMs, r.SelfMs)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{
		"workload": workload, "seed": seed, "overhead_pct": overheadPct,
		"layers": rows, "spans": spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
