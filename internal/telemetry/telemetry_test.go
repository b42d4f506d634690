package telemetry

import (
	"context"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRenderTextGolden pins the exposition output byte-for-byte: family
// ordering, series ordering within a family, HELP/TYPE lines, label and
// HELP escaping, and histogram bucket/sum/count layout.
func TestRenderTextGolden(t *testing.T) {
	r := NewRegistry()

	// Registered deliberately out of name order to prove sorting.
	g := r.Gauge("ztest_live_sessions", "Live sessions.")
	g.Set(3)

	// Two series under one family, registered out of label order.
	cb := r.Counter("atest_requests_total", "Requests by route.",
		Label{Key: "route", Value: "/v1/stats"})
	ca := r.Counter("atest_requests_total", "Requests by route.",
		Label{Key: "route", Value: "/v1/protect"})
	ca.Add(2)
	cb.Inc()

	// Escaping: backslash, quote and newline in a label value; backslash
	// and newline in HELP.
	esc := r.Counter("mtest_escape_total", "line one\nline \\ two",
		Label{Key: "v", Value: "a\\b\"c\nd"})
	esc.Inc()

	h := r.Histogram("htest_duration_seconds", "Span durations.",
		[]int64{1_000, 1_000_000, 1_000_000_000}, 1e9,
		Label{Key: "stage", Value: "score"})
	h.Observe(500)           // first bucket (le 1µs)
	h.Observe(2_000)         // second bucket (le 1ms)
	h.Observe(2_000_000)     // third bucket (le 1s)
	h.Observe(5_000_000_000) // +Inf
	r.GaugeFunc("ptest_pi", "A function-backed gauge.", func() float64 { return 3.5 })

	want := strings.Join([]string{
		`# HELP atest_requests_total Requests by route.`,
		`# TYPE atest_requests_total counter`,
		`atest_requests_total{route="/v1/protect"} 2`,
		`atest_requests_total{route="/v1/stats"} 1`,
		`# HELP htest_duration_seconds Span durations.`,
		`# TYPE htest_duration_seconds histogram`,
		`htest_duration_seconds_bucket{stage="score",le="1e-06"} 1`,
		`htest_duration_seconds_bucket{stage="score",le="0.001"} 2`,
		`htest_duration_seconds_bucket{stage="score",le="1"} 3`,
		`htest_duration_seconds_bucket{stage="score",le="+Inf"} 4`,
		`htest_duration_seconds_sum{stage="score"} 5.0020025`,
		`htest_duration_seconds_count{stage="score"} 4`,
		`# HELP mtest_escape_total line one\nline \\ two`,
		`# TYPE mtest_escape_total counter`,
		`mtest_escape_total{v="a\\b\"c\nd"} 1`,
		`# HELP ptest_pi A function-backed gauge.`,
		`# TYPE ptest_pi gauge`,
		`ptest_pi 3.5`,
		`# HELP ztest_live_sessions Live sessions.`,
		`# TYPE ztest_live_sessions gauge`,
		`ztest_live_sessions 3`,
	}, "\n") + "\n"

	got := string(r.RenderText())
	if got != want {
		t.Errorf("RenderText mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Rendering twice must be byte-identical (deterministic ordering).
	if again := string(r.RenderText()); again != got {
		t.Errorf("RenderText not deterministic:\nfirst:\n%s\nsecond:\n%s", got, again)
	}
}

// TestSamplesGolden pins the sample walk GET /v1/stats is written from:
// one call per non-bucket sample RenderText prints, in the same order,
// keyed by the sample's name and label block as printed, integers as n and
// function gauges and _sum as f, NaN and infinities included.
func TestSamplesGolden(t *testing.T) {
	r := NewRegistry()
	r.Gauge("ztest_live_sessions", "Live sessions.").Set(3)
	r.Counter("atest_requests_total", "Requests by route.",
		Label{Key: "route", Value: "/v1/protect"}).Add(2)
	r.Counter("mtest_escape_total", "line one\nline \\ two",
		Label{Key: "v", Value: "a\\b\"c\nd\te"}).Inc()
	h := r.Histogram("htest_duration_seconds", "Span durations.",
		[]int64{1_000, 1_000_000}, 1e9, Label{Key: "stage", Value: "score"})
	h.Observe(500)
	h.Observe(2_000_000)
	r.Histogram("htest_bytes", "Sizes.", []int64{10}, 1).Observe(4_000_000)
	r.GaugeFunc("ptest_pi", "A function-backed gauge.", func() float64 { return 3.5 })
	r.GaugeFunc("ptest_nan", "A NaN gauge.", math.NaN)
	r.GaugeFunc("ptest_inf", "An infinite gauge.", func() float64 { return math.Inf(-1) })

	want := strings.Join([]string{
		`atest_requests_total{route="/v1/protect"} int 2`,
		`htest_bytes_sum float 4e+06`,
		`htest_bytes_count int 1`,
		`htest_duration_seconds_sum{stage="score"} float 0.0020005`,
		`htest_duration_seconds_count{stage="score"} int 2`,
		`mtest_escape_total{v="a\\b\"c\nd` + "\t" + `e"} int 1`,
		`ptest_inf float -Inf`,
		`ptest_nan float NaN`,
		`ptest_pi float 3.5`,
		`ztest_live_sessions int 3`,
	}, "\n")
	var lines []string
	r.Samples(func(key string, n int64, f float64, isInt bool) {
		if isInt {
			lines = append(lines, key+" int "+strconv.FormatInt(n, 10))
		} else {
			lines = append(lines, key+" float "+strconv.FormatFloat(f, 'g', -1, 64))
		}
	})
	if got := strings.Join(lines, "\n"); got != want {
		t.Errorf("Samples mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "X.").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1\n") {
		t.Errorf("body missing sample:\n%s", rec.Body.String())
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}

	r := NewRegistry()
	r.Counter("a_total", "A.")
	mustPanic("type mismatch", func() { r.Gauge("a_total", "A.") })
	mustPanic("help mismatch", func() { r.Counter("a_total", "B.") })
	mustPanic("duplicate series", func() { r.Counter("a_total", "A.") })
	mustPanic("descending bounds", func() {
		r.Histogram("h_seconds", "H.", []int64{10, 5}, 1)
	})
	mustPanic("bad exponential bounds", func() { ExponentialBounds(0, 2, 4) })
}

func TestHistogramCountersSelfConsistent(t *testing.T) {
	h := newHistogram(DurationBounds(), 1e9)
	for i := int64(0); i < 1000; i++ {
		h.Observe(i * 1_000_003)
	}
	if got := histCount(h); got != 1000 {
		t.Errorf("_count = %d, want 1000", got)
	}
	if sum := h.sum.Load(); sum <= 0 {
		t.Errorf("raw sum = %d, want > 0", sum)
	}
}

// histCount returns the _count sample h renders.
func histCount(h *Histogram) (n int64) {
	h.samples(func(x sample) {
		if x.suffix == "_count" {
			n = x.n
		}
	})
	return n
}

// TestRegistryConcurrency hammers registration, observation and rendering
// from many goroutines; run under -race in CI.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c_duration_seconds", "C.", DurationBounds(), 1e9)
	c := r.Counter("c_total", "C total.")
	g := r.Gauge("c_live", "C live.")
	sh := NewStageHistograms(r, "c_stage_duration_seconds", "C stage.")
	sp := NewStages(sh)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				h.Observe(int64(i) * 997)
				c.Inc()
				g.Add(1)
				g.Add(-1)
				sp.Add(Stage(i%NumStages), time.Duration(i))
			}
			// A late registration must not race with rendering.
			r.Counter("c_worker_total", "Per-worker.", Label{Key: "w", Value: string(rune('a' + w))})
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = r.RenderText()
			r.Samples(func(string, int64, float64, bool) {})
		}
	}()
	wg.Wait()

	if got := c.Load(); got != 8*2000 {
		t.Errorf("counter = %d, want %d", got, 8*2000)
	}
	if got := histCount(h); got != 8*2000 {
		t.Errorf("histogram count = %d, want %d", got, 8*2000)
	}
	var calls int64
	for i := 0; i < NumStages; i++ {
		calls += sp.Calls(Stage(i))
	}
	if calls != 8*2000 {
		t.Errorf("stage calls = %d, want %d", calls, 8*2000)
	}
}

// TestObserveZeroAlloc pins the zero-allocation contract on every hotpath
// write primitive.
func TestObserveZeroAlloc(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("z_duration_seconds", "Z.", DurationBounds(), 1e9)
	c := r.Counter("z_total", "Z total.")
	g := r.Gauge("z_live", "Z live.")
	sh := NewStageHistograms(r, "z_stage_duration_seconds", "Z stage.")
	sp := NewStages(sh)

	cases := []struct {
		name string
		fn   func()
	}{
		{"Histogram.Observe", func() { h.Observe(123_456) }},
		{"Counter.Add", func() { c.Add(2) }},
		{"Gauge.Set", func() { g.Set(7) }},
		{"Stages.Add", func() { sp.Add(StageScore, 123*time.Microsecond) }},
		{"nil Stages.Add", func() { (*Stages)(nil).Add(StageScore, time.Millisecond) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(1000, tc.fn); n != 0 {
			t.Errorf("%s allocates %v per op, want 0", tc.name, n)
		}
	}
}

func TestStagesContext(t *testing.T) {
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext(empty) = %v, want nil", got)
	}
	sp := NewStages(nil)
	ctx := NewContext(context.Background(), sp)
	if got := FromContext(ctx); got != sp {
		t.Fatalf("FromContext did not round-trip")
	}
	FromContext(ctx).Add(StageEnumerate, 5*time.Millisecond)
	FromContext(ctx).Add(StageEnumerate, 7*time.Millisecond)
	if got := sp.Nanos(StageEnumerate); got != int64(12*time.Millisecond) {
		t.Errorf("Nanos = %d", got)
	}
	if got := sp.Calls(StageEnumerate); got != 2 {
		t.Errorf("Calls = %d", got)
	}
	if got := sp.Total(); got != int64(12*time.Millisecond) {
		t.Errorf("Total = %d", got)
	}
	if NewContext(context.Background(), nil) != context.Background() {
		t.Errorf("NewContext(nil) should return ctx unchanged")
	}
}

func TestStageString(t *testing.T) {
	want := map[Stage]string{
		StageEnumerate:  "enumerate",
		StageScore:      "score",
		StageWarmReplay: "warm_replay",
		StageColdSelect: "cold_select",
		StageDeltaApply: "delta_apply",
		Stage(250):      "unknown",
	}
	//lint:maporder-ok assertions are order-independent
	for st, name := range want {
		if st.String() != name {
			t.Errorf("Stage(%d).String() = %q, want %q", st, st.String(), name)
		}
	}
}
