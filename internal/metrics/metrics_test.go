package metrics

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("trail_test_total", "a test counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# HELP trail_test_total a test counter\n" +
		"# TYPE trail_test_total counter\n" +
		"trail_test_total 5\n"
	if sb.String() != want {
		t.Fatalf("render:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestCounterVecRender(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("trail_http_requests_total", "requests", "path", "code")
	v.With("/v1/attribute", "200").Add(3)
	v.With("/healthz", "200").Inc()
	v.With("/v1/attribute", "404").Inc()
	var sb strings.Builder
	r.WriteTo(&sb)
	out := sb.String()
	for _, line := range []string{
		`trail_http_requests_total{path="/v1/attribute",code="200"} 3`,
		`trail_http_requests_total{path="/healthz",code="200"} 1`,
		`trail_http_requests_total{path="/v1/attribute",code="404"} 1`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("missing line %q in:\n%s", line, out)
		}
	}
	if strings.Count(out, "# TYPE") != 1 {
		t.Errorf("want one TYPE header, got:\n%s", out)
	}
	// Same label values resolve to the same child.
	if v.With("/healthz", "200").Value() != 1 {
		t.Error("child lookup not stable")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("trail_inflight", "in-flight requests")
	g.Set(2.5)
	g.Inc()
	g.Dec()
	g.Add(0.5)
	if got := g.Value(); got != 3.0 {
		t.Fatalf("Value = %v, want 3", got)
	}
	var sb strings.Builder
	r.WriteTo(&sb)
	if !strings.Contains(sb.String(), "trail_inflight 3\n") {
		t.Fatalf("render:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "# TYPE trail_inflight gauge\n") {
		t.Fatalf("missing gauge TYPE header:\n%s", sb.String())
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("trail_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-5.56) > 1e-9 {
		t.Fatalf("Sum = %v, want 5.56", h.Sum())
	}
	var sb strings.Builder
	r.WriteTo(&sb)
	out := sb.String()
	for _, line := range []string{
		`trail_latency_seconds_bucket{le="0.01"} 2`,
		`trail_latency_seconds_bucket{le="0.1"} 3`,
		`trail_latency_seconds_bucket{le="1"} 4`,
		`trail_latency_seconds_bucket{le="+Inf"} 5`,
		`trail_latency_seconds_count 5`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("missing %q in:\n%s", line, out)
		}
	}
}

func TestHistogramBoundaryLE(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2})
	h.Observe(1) // le="1" is inclusive
	var sb strings.Builder
	r.WriteTo(&sb)
	if !strings.Contains(sb.String(), `h_bucket{le="1"} 1`+"\n") {
		t.Fatalf("boundary observation not in le=1 bucket:\n%s", sb.String())
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", DefBuckets())
	v := r.CounterVec("v", "", "k")
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.001)
				v.With("a").Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*each {
		t.Errorf("counter = %d, want %d", c.Value(), workers*each)
	}
	if g.Value() != workers*each {
		t.Errorf("gauge = %v, want %d", g.Value(), workers*each)
	}
	if h.Count() != workers*each {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*each)
	}
	if v.With("a").Value() != workers*each {
		t.Errorf("vec = %d, want %d", v.With("a").Value(), workers*each)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "x_total 1") {
		t.Errorf("body: %s", buf[:n])
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate name")
		}
	}()
	r := NewRegistry()
	r.Counter("dup", "")
	r.Gauge("dup", "")
}

func TestEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("e", `multi
line help`, "k").With(`va"l\ue`).Inc()
	var sb strings.Builder
	r.WriteTo(&sb)
	out := sb.String()
	if !strings.Contains(out, `# HELP e multi\nline help`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `e{k="va\"l\\ue"} 1`) {
		t.Errorf("label not escaped:\n%s", out)
	}
}

// TestGaugeFunc: the value is computed at render time, not registration
// time.
func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 1.5
	r.GaugeFunc("trail_test_age_seconds", "computed at scrape", func() float64 { return v })
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "trail_test_age_seconds 1.5") {
		t.Fatalf("render missing computed value:\n%s", buf.String())
	}
	v = 4
	buf.Reset()
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "trail_test_age_seconds 4") {
		t.Fatalf("render did not recompute:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "# TYPE trail_test_age_seconds gauge") {
		t.Fatalf("missing TYPE header:\n%s", buf.String())
	}
}
