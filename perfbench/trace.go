package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// span is one timed call into a layer during the traced replay. Spans of
// one op share op; parent indexes the tracer's span list (-1 for the op's
// root). A dup span times a call whose work the program also does inside
// another call (a decode inside recover, a validation inside apply): it is
// reported as a layer metric but never counted as time the op spent.
type span struct {
	Name   string `json:"name"`
	Op     int32  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Dup    bool   `json:"dup,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the module a span belongs to: the part of its name before the
// first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory; a nil tracer records nothing.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: t.now()})
	return int32(len(t.spans) - 1)
}

// beginDup opens a dup span.
func (t *tracer) beginDup(name string, op, parent int32) int32 {
	i := t.begin(name, op, parent)
	if i >= 0 {
		t.spans[i].Dup = true
	}
	return i
}

func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = t.now()
}

// stageSpans names the span each telemetry stage becomes.
var stageSpans = [telemetry.NumStages]string{
	telemetry.StageEnumerate:  "motif.enumerate",
	telemetry.StageScore:      "tpp.score",
	telemetry.StageWarmReplay: "tpp.warm_replay",
	telemetry.StageColdSelect: "tpp.cold_select",
	telemetry.StageDeltaApply: "motif.delta_apply",
}

// stages turns the stage recorder a call ran under into child spans of
// parent. The recorder measures durations only, so the children are laid
// end to end from the parent's start and clipped to its end.
func (t *tracer) stages(sp *telemetry.Stages, parent int32) {
	if t == nil || parent < 0 || sp == nil {
		return
	}
	p := t.spans[parent]
	at := p.Start
	for st := 0; st < telemetry.NumStages; st++ {
		if sp.Calls(telemetry.Stage(st)) == 0 {
			continue
		}
		end := min(at+sp.Nanos(telemetry.Stage(st)), p.End)
		t.spans = append(t.spans, span{Name: stageSpans[st], Op: p.Op, Parent: parent, Start: at, End: end})
		at = end
	}
}

// merge appends other's spans, re-basing their parent indices.
func (t *tracer) merge(other *tracer) {
	base := int32(len(t.spans))
	for _, s := range other.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its non-dup children (overlapping children are
// counted once).
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && !s.Dup {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ a, b int64 }
	for i, s := range spans {
		var ivs []iv
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		self[i] = s.dur() - covered
	}
	return self
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
