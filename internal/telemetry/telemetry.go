// Package telemetry is the repo's dependency-free metrics core: counters,
// gauges and fixed-boundary log-scale histograms behind a Registry that
// renders Prometheus text exposition format (v0.0.4) and hands the same
// samples to a caller one by one (Samples), plus a lightweight per-stage span recorder (see
// stage.go) threaded through the protect pipeline via context.
//
// The package exists so that observing the hot path does not un-win the
// repo's zero-alloc contracts: every write-side operation — Counter.Add,
// Gauge.Set, Histogram.Observe, Stages.Add — is a handful of atomic
// operations on pre-registered flat state, performs no hashing, no locking
// and no allocation, and is enforced by the hotalloc analyzer
// (//tpp:hotpath). All synchronisation (the registry mutex) lives on the
// cold registration and render paths.
//
// Instruments are registered once at startup under stable names; the same
// family name may carry several label sets (e.g. one request-latency
// histogram per route), and rendering is deterministic: families sorted by
// name, series sorted by their label signature, HELP/TYPE emitted once per
// family.
package telemetry

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. The zero value is
// ready to use; nil receivers no-op so optional instrumentation needs no
// branching at call sites.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
//
//tpp:hotpath
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
//
//tpp:hotpath
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current count.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an int64 metric that can go up and down (live sessions, slots in
// use). The zero value is ready to use; nil receivers no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
//
//tpp:hotpath
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (negative to decrease).
//
//tpp:hotpath
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Label is one metric dimension, attached at registration time. Dynamic
// label values are deliberately unsupported: every series is pre-registered,
// so the hot path never hashes a label set.
type Label struct {
	Key, Value string
}

// kind discriminates the metric families a Registry can hold.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one registered instrument: a family member with a fixed,
// pre-rendered label signature.
type series struct {
	labels string // `route="/v1/protect",class="2xx"` or ""
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// family groups every series registered under one metric name.
type family struct {
	name string
	help string
	kind kind
	ser  []*series // sorted by label signature
}

// Registry holds the process's metric families and renders them in
// Prometheus text exposition format. Registration and rendering are
// mutex-guarded; the instruments themselves are lock-free, so observing
// never contends with scraping.
type Registry struct {
	mu  sync.Mutex
	fam map[string]*family // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fam: make(map[string]*family)}
}

// register adds one series, creating its family on first use. Registration
// mistakes — a name reused with a different type or help, or a duplicate
// label signature — are programmer errors and panic.
func (r *Registry) register(name, help string, k kind, labels []Label, s *series) {
	sig := renderLabels(labels)
	s.labels = sig
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k}
		r.fam[name] = f
	} else {
		if f.kind != k || f.help != help {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s/%q (was %s/%q)",
				name, k, help, f.kind, f.help))
		}
		for _, prev := range f.ser {
			if prev.labels == sig {
				panic(fmt.Sprintf("telemetry: duplicate series %s{%s}", name, sig))
			}
		}
	}
	at := sort.Search(len(f.ser), func(i int) bool { return f.ser[i].labels >= sig })
	f.ser = append(f.ser, nil)
	copy(f.ser[at+1:], f.ser[at:])
	f.ser[at] = s
}

// Counter registers and returns a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, labels, &series{c: c})
	return c
}

// Gauge registers and returns a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(name, help, kindGauge, labels, &series{g: g})
	return g
}

// GaugeFunc registers a gauge whose value is read from fn at render time —
// for quantities another component already owns (open sessions, semaphore
// occupancy) that would otherwise need write-through bookkeeping.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGaugeFunc, labels, &series{fn: fn})
}

// Histogram registers and returns a histogram series with the given
// ascending bucket upper bounds (see ExponentialBounds) in raw units and a
// render divisor mapping raw units to the exposition unit (1e9 for
// nanoseconds rendered as seconds, 1 for bytes). The bounds are copied.
func (r *Registry) Histogram(name, help string, bounds []int64, unit float64, labels ...Label) *Histogram {
	h := newHistogram(bounds, unit)
	r.register(name, help, kindHistogram, labels, &series{h: h})
	return h
}

// renderLabels pre-renders a label set into its exposition signature:
// comma-joined key="value" pairs, keys sorted, values escaped.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the text exposition format:
// backslash, double-quote and newline.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// sample is one sample line of the exposition: a series' value under its
// family name plus suffix ("" for counters and gauges; "_bucket", "_sum"
// and "_count" for a histogram) and its label block plus le (a bucket's
// `le="…"` fragment, else ""). Counters, gauges, buckets and _count are
// integers (isInt); a function gauge and _sum are floats.
type sample struct {
	suffix string
	le     string
	n      int64
	f      float64
	isInt  bool
}

// walk calls fn for every sample line RenderText prints, in its order:
// families by name, series by label signature, a histogram's buckets then
// its _sum and _count. It holds the registry lock throughout. Both views
// of the registry, the text exposition and the Samples a caller writes
// (tppd's GET /v1/stats), come from this one walk, so they cannot list
// different series.
func (r *Registry) walk(fn func(f *family, s *series, x sample)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.fam))
	//lint:maporder-ok keys are collected and sorted before use
	for name := range r.fam {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := r.fam[name]
		for _, s := range f.ser {
			switch f.kind {
			case kindCounter:
				fn(f, s, sample{n: s.c.Load(), isInt: true})
			case kindGauge:
				fn(f, s, sample{n: s.g.Load(), isInt: true})
			case kindGaugeFunc:
				fn(f, s, sample{f: s.fn()})
			case kindHistogram:
				s.h.samples(func(x sample) { fn(f, s, x) })
			}
		}
	}
}

// RenderText renders every family in Prometheus text exposition format
// v0.0.4: families in name order, one HELP and TYPE line each, series in
// label-signature order. Values read while instruments are concurrently
// written are individually atomic; histogram bucket lines are rendered
// cumulative from a single pass, so `le` monotonicity holds within a scrape
// even under concurrent observation.
func (r *Registry) RenderText() []byte {
	var b []byte
	var last *family
	r.walk(func(f *family, s *series, x sample) {
		if f != last {
			last = f
			b = append(b, "# HELP "...)
			b = append(b, f.name...)
			b = append(b, ' ')
			b = append(b, escapeHelp(f.help)...)
			b = append(b, "\n# TYPE "...)
			b = append(b, f.name...)
			b = append(b, ' ')
			b = append(b, f.kind.String()...)
			b = append(b, '\n')
		}
		b = appendSample(b, f.name, x.suffix, s.labels, x.le)
		if x.isInt {
			b = strconv.AppendInt(b, x.n, 10)
		} else {
			b = appendFloat(b, x.f)
		}
		b = append(b, '\n')
	})
	return b
}

// Samples calls fn once per sample line RenderText prints except histogram
// buckets, in the same order, with the sample's name and label block exactly
// as the exposition prints them (`tppd_selection_runs_total{mode="warm"}`,
// `x_seconds_sum`) and its value: n when isInt (counters, gauges, _count),
// else f (function gauges, _sum), which may be NaN or infinite.
func (r *Registry) Samples(fn func(key string, n int64, f float64, isInt bool)) {
	var key []byte
	r.walk(func(fam *family, s *series, x sample) {
		if x.suffix == "_bucket" {
			return
		}
		key = appendSample(key[:0], fam.name, x.suffix, s.labels, "")
		fn(string(key[:len(key)-1]), x.n, x.f, x.isInt) // without appendSample's trailing space
	})
}

// appendSample appends `name[suffix]{labels[,extra]} ` with the trailing
// space, ready for the value.
func appendSample(b []byte, name, suffix, labels, extra string) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	if labels != "" || extra != "" {
		b = append(b, '{')
		b = append(b, labels...)
		if labels != "" && extra != "" {
			b = append(b, ',')
		}
		b = append(b, extra...)
		b = append(b, '}')
	}
	return append(b, ' ')
}

// appendFloat renders a float in the shortest round-tripping form, the
// conventional exposition spelling.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// Handler serves the registry at GET /metrics in text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write(r.RenderText())
	})
}
