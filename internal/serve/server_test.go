package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"trail/internal/graph"
)

func newTestServer(t *testing.T, cfg Config, load Loader) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	srv, err := New(cfg, load)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func postAttribute(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/attribute", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// directAnswer computes the reference probability row for one key
// straight from a snapshot, bypassing HTTP.
func directAnswer(t *testing.T, snap *Snapshot, key string) []float64 {
	t.Helper()
	id, ok := snap.Lookup(graph.KindEvent, key)
	if !ok {
		t.Fatalf("key %q not in snapshot", key)
	}
	out := [][]float64{make([]float64, snap.Classes())}
	snap.Attribute([]graph.NodeID{id}, out)
	return out[0]
}

func TestServerAttributeRoundTrip(t *testing.T) {
	f := fixture(t)
	srv, ts := newTestServer(t, Config{}, f.loader())

	snap := srv.Snapshot()
	if snap.Epoch != 1 || snap.Precision != "float64" {
		t.Fatalf("initial snapshot epoch %d precision %s", snap.Epoch, snap.Precision)
	}
	keys := snap.SampleKeys(graph.KindEvent, 4)
	if len(keys) == 0 {
		t.Fatal("no event keys in snapshot")
	}

	resp, body := postAttribute(t, ts.URL, map[string]any{
		"kind": "event", "key": keys[0], "top_k": snap.Classes(),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var ar attributeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	if ar.Kind != "event" || ar.Key != keys[0] || ar.Epoch != 1 || ar.Precision != "float64" {
		t.Fatalf("echo fields wrong: %+v", ar)
	}
	if len(ar.Predictions) != snap.Classes() {
		t.Fatalf("%d predictions, want all %d classes", len(ar.Predictions), snap.Classes())
	}
	sum := 0.0
	for i, p := range ar.Predictions {
		sum += p.Probability
		if i > 0 && p.Probability > ar.Predictions[i-1].Probability {
			t.Fatalf("predictions not sorted at %d: %v > %v", i, p.Probability, ar.Predictions[i-1].Probability)
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probabilities sum to %v", sum)
	}

	// Default TopK truncates the ranking.
	resp, body = postAttribute(t, ts.URL, map[string]any{"kind": "event", "key": keys[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var topped attributeResponse
	json.Unmarshal(body, &topped)
	if want := 5; len(topped.Predictions) != want {
		t.Fatalf("default top-k gave %d predictions, want %d", len(topped.Predictions), want)
	}
}

func TestServerAttributeErrors(t *testing.T) {
	f := fixture(t)
	_, ts := newTestServer(t, Config{MaxBody: 256}, f.loader())

	get, err := http.Get(ts.URL + "/v1/attribute")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", get.StatusCode)
	}

	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"malformed", `{`, http.StatusBadRequest, "invalid_request"},
		{"unknown field", `{"kind":"event","key":"x","nope":1}`, http.StatusBadRequest, "invalid_request"},
		{"bad kind", `{"kind":"proto","key":"x"}`, http.StatusBadRequest, "invalid_kind"},
		{"missing key", `{"kind":"event"}`, http.StatusBadRequest, "invalid_request"},
		{"unknown key", `{"kind":"event","key":"no-such-event"}`, http.StatusNotFound, "not_found"},
		{"oversized", `{"kind":"event","key":"` + strings.Repeat("x", 512) + `"}`, http.StatusBadRequest, "invalid_request"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/attribute", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d want %d (%s)", tc.name, resp.StatusCode, tc.status, raw)
		}
		var er errorResponse
		if err := json.Unmarshal(raw, &er); err != nil {
			t.Fatalf("%s: non-JSON error body %s", tc.name, raw)
		}
		if er.Error.Code != tc.code {
			t.Fatalf("%s: code %q want %q", tc.name, er.Error.Code, tc.code)
		}
	}
}

func TestServerStatsSampleHealthMetrics(t *testing.T) {
	f := fixture(t)
	srv, ts := newTestServer(t, Config{}, f.loader())

	var health map[string]string
	getJSON(t, ts.URL+"/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz %v", health)
	}

	var stats statsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	snap := srv.Snapshot()
	if stats.Epoch != 1 || stats.Precision != "float64" ||
		stats.Nodes != snap.NumNodes || stats.Events != snap.NumEvents ||
		stats.Classes != snap.Classes() || stats.LabeledEvents == 0 {
		t.Fatalf("stats %+v vs snapshot %+v", stats, snap)
	}

	var sample struct {
		Kind  string   `json:"kind"`
		Epoch uint64   `json:"epoch"`
		Keys  []string `json:"keys"`
	}
	getJSON(t, ts.URL+"/v1/sample?kind=event&limit=5", &sample)
	if sample.Kind != "event" || len(sample.Keys) == 0 || len(sample.Keys) > 5 {
		t.Fatalf("sample %+v", sample)
	}
	for _, k := range sample.Keys {
		if _, ok := snap.Lookup(graph.KindEvent, k); !ok {
			t.Fatalf("sampled key %q does not resolve", k)
		}
	}

	// One real query so the serving counters are nonzero in /metrics.
	resp, body := postAttribute(t, ts.URL, map[string]any{"kind": "event", "key": sample.Keys[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("attribute status %d: %s", resp.StatusCode, body)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(mbody)
	for _, want := range []string{
		"trail_http_requests_total{",
		"trail_snapshot_epoch 1",
		"trail_attribute_requests_total 1",
		"trail_attribute_latency_seconds_count 1",
		"trail_snapshot_build_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestAttributeLatencyBucketsResolveMicroseconds: an inline answer takes
// microseconds, so /metrics must place fast requests in a latency bucket
// below 0.5 ms instead of lumping every observation into one bucket.
func TestAttributeLatencyBucketsResolveMicroseconds(t *testing.T) {
	f := fixture(t)
	_, ts := newTestServer(t, Config{}, f.loader())
	key := f.ectx.TKG.G.Node(f.ectx.TKG.EventNodes()[0]).Key
	const requests = 20
	for i := 0; i < requests; i++ {
		if resp, body := postAttribute(t, ts.URL, map[string]any{"kind": "event", "key": key}); resp.StatusCode != http.StatusOK {
			t.Fatalf("attribute status %d: %s", resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// Buckets are cumulative: the count of the largest bound under
	// 0.5 ms is every request answered faster than that bound.
	var below uint64
	bound := 0.0
	for _, line := range strings.Split(string(body), "\n") {
		rest, ok := strings.CutPrefix(line, `trail_attribute_latency_seconds_bucket{le="`)
		if !ok || strings.HasPrefix(rest, "+Inf") {
			continue
		}
		var le float64
		var n uint64
		if _, err := fmt.Sscanf(strings.Replace(rest, `"} `, " ", 1), "%g %d", &le, &n); err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if le < 0.0005 && le > bound {
			bound, below = le, n
		}
	}
	if bound == 0 {
		t.Fatalf("trail_attribute_latency_seconds has no bucket below 0.5 ms:\n%s", body)
	}
	if below == 0 {
		t.Fatalf("none of %d requests landed at or below %g s:\n%s", requests, bound, body)
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("GET %s: %v in %s", url, err, body)
	}
}

// TestServerConcurrentMatchesSequential: 32 concurrent clients, each on
// its own handler goroutine, answer bit-identically to one-at-a-time
// reads of the same snapshot's table.
func TestServerConcurrentMatchesSequential(t *testing.T) {
	f := fixture(t)
	srv, ts := newTestServer(t, Config{}, f.loader())

	snap := srv.Snapshot()
	keys := snap.SampleKeys(graph.KindEvent, 32)
	if len(keys) < 8 {
		t.Fatalf("only %d event keys", len(keys))
	}
	want := make(map[string][]float64, len(keys))
	for _, k := range keys {
		want[k] = directAnswer(t, snap, k)
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(keys))
	for _, k := range keys {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			raw, _ := json.Marshal(map[string]any{"kind": "event", "key": key, "top_k": snap.Classes()})
			resp, err := http.Post(ts.URL+"/v1/attribute", "application/json", bytes.NewReader(raw))
			if err != nil {
				errs <- err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("%s: status %d %s", key, resp.StatusCode, body)
				return
			}
			var ar attributeResponse
			if err := json.Unmarshal(body, &ar); err != nil {
				errs <- err
				return
			}
			got := make(map[string]float64, len(ar.Predictions))
			for _, p := range ar.Predictions {
				got[p.APT] = p.Probability
			}
			for c, apt := range snap.Names {
				if got[apt] != want[key][c] {
					errs <- fmt.Errorf("%s class %s: concurrent %v != sequential %v",
						key, apt, got[apt], want[key][c])
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServerAttributeAfterClose: once Close has run, /v1/attribute
// refuses with 503 shutting_down.
func TestServerAttributeAfterClose(t *testing.T) {
	f := fixture(t)
	srv, ts := newTestServer(t, Config{}, f.loader())
	key := srv.Snapshot().SampleKeys(graph.KindEvent, 1)[0]
	if resp, body := postAttribute(t, ts.URL, map[string]any{"kind": "event", "key": key}); resp.StatusCode != http.StatusOK {
		t.Fatalf("before Close: status %d: %s", resp.StatusCode, body)
	}

	srv.Close()
	resp, body := postAttribute(t, ts.URL, map[string]any{"kind": "event", "key": key})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("after Close: status %d: %s", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error.Code != "shutting_down" {
		t.Fatalf("after Close: body %s (%v), want code shutting_down", body, err)
	}
}

// TestServerReloadHammer is the torn-read gate: clients hammer
// /v1/attribute while snapshots of alternating precision reload
// underneath them. Every answer must be bit-identical to exactly the
// reference of its reported precision, and one epoch must never serve
// two precisions.
func TestServerReloadHammer(t *testing.T) {
	f := fixture(t)
	srv, ts := newTestServer(t, Config{}, f.alternatingLoader())

	keys := srv.Snapshot().SampleKeys(graph.KindEvent, 8)
	classes := srv.Snapshot().Classes()
	ref := map[string]map[string][]float64{"float64": {}, "float32": {}}
	s64, s32 := f.snapshot64(t), f.snapshot32(t)
	for _, k := range keys {
		ref["float64"][k] = directAnswer(t, s64, k)
		ref["float32"][k] = directAnswer(t, s32, k)
	}

	var (
		mu        sync.Mutex
		epochPrec = map[uint64]string{}
	)
	stop := make(chan struct{})
	var reloads sync.WaitGroup
	reloads.Add(1)
	go func() {
		defer reloads.Done()
		defer close(stop)
		for i := 0; i < 12; i++ {
			if _, err := srv.Reload(); err != nil {
				t.Errorf("reload %d: %v", i, err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := keys[(w+i)%len(keys)]
				raw, _ := json.Marshal(map[string]any{"kind": "event", "key": key, "top_k": classes})
				resp, err := http.Post(ts.URL+"/v1/attribute", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d: %s", resp.StatusCode, body)
					return
				}
				var ar attributeResponse
				if err := json.Unmarshal(body, &ar); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if prev, seen := epochPrec[ar.Epoch]; seen && prev != ar.Precision {
					t.Errorf("epoch %d served both %s and %s", ar.Epoch, prev, ar.Precision)
				}
				epochPrec[ar.Epoch] = ar.Precision
				mu.Unlock()
				want := ref[ar.Precision][key]
				if want == nil {
					t.Errorf("unknown precision %q", ar.Precision)
					return
				}
				got := map[string]float64{}
				for _, p := range ar.Predictions {
					got[p.APT] = p.Probability
				}
				for c, apt := range srv.Snapshot().Names {
					if got[apt] != want[c] {
						t.Errorf("epoch %d (%s) key %s class %s: %v != reference %v — torn or mixed-snapshot answer",
							ar.Epoch, ar.Precision, key, apt, got[apt], want[c])
						return
					}
				}
			}
		}(w)
	}
	reloads.Wait()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(epochPrec) < 2 {
		t.Errorf("hammer only observed %d epoch(s) — reload interleaving did not exercise the swap", len(epochPrec))
	}
	for epoch, prec := range epochPrec {
		want := "float64"
		if epoch%2 == 0 {
			want = "float32"
		}
		if prec != want {
			t.Errorf("epoch %d served %s, alternating loader should give %s", epoch, prec, want)
		}
	}
}

// TestServerRunGracefulDrain exercises the signal path: Run serves until
// its context is cancelled, finishes in-flight work, and returns.
func TestServerRunGracefulDrain(t *testing.T) {
	f := fixture(t)
	srv, err := New(Config{Logf: t.Logf}, f.loader())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx, "127.0.0.1:0") }()

	// The listener address is not exposed; hit the handler directly to
	// prove the server answers, then cancel and require a clean return.
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz %d", rec.Code)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Run did not drain within 15s")
	}
}

func TestServerReloadEndpointAndFailure(t *testing.T) {
	f := fixture(t)
	calls := 0
	loader := func() (*Snapshot, error) {
		calls++
		if calls == 2 {
			return nil, fmt.Errorf("synthetic loader failure")
		}
		return f.loader()()
	}
	srv, ts := newTestServer(t, Config{}, loader)

	// First reload fails: the old snapshot must keep serving.
	resp, err := http.Post(ts.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed reload status %d: %s", resp.StatusCode, body)
	}
	if srv.Snapshot().Epoch != 1 {
		t.Fatalf("failed reload bumped epoch to %d", srv.Snapshot().Epoch)
	}

	// Second reload succeeds and bumps the epoch.
	resp, err = http.Post(ts.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rr struct {
		Epoch uint64 `json:"epoch"`
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %s", resp.StatusCode, body)
	}
	if json.Unmarshal(body, &rr); rr.Epoch != 2 || srv.Snapshot().Epoch != 2 {
		t.Fatalf("reload epoch %d / snapshot %d, want 2", rr.Epoch, srv.Snapshot().Epoch)
	}
	if got := srv.met.reloadFails.Value(); got != 1 {
		t.Fatalf("reload failure counter %d", got)
	}
}

// TestServerSnapshotAgeAndPublish: /v1/stats reports snapshot age, the
// age gauge renders at scrape time, and Publish installs an external
// snapshot with a fresh epoch — the streaming-ingest publish path.
func TestServerSnapshotAgeAndPublish(t *testing.T) {
	f := fixture(t)
	srv, ts := newTestServer(t, Config{}, f.loader())

	var stats statsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.SnapshotAgeSec < 0 || stats.SnapshotAgeSec > 60 {
		t.Fatalf("snapshot_age_seconds %v out of range", stats.SnapshotAgeSec)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "# TYPE trail_snapshot_age_seconds gauge") ||
		!strings.Contains(string(raw), "trail_snapshot_age_seconds ") {
		t.Fatalf("metrics missing snapshot age gauge:\n%s", raw)
	}

	// External publish: build a second snapshot from the fixture and
	// install it directly.
	snap2, err := f.loader()()
	if err != nil {
		t.Fatal(err)
	}
	before := srv.Snapshot().Epoch
	srv.Publish(snap2)
	got := srv.Snapshot()
	if got != snap2 || got.Epoch != before+1 {
		t.Fatalf("publish: epoch %d (before %d), snap identity %v", got.Epoch, before, got == snap2)
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Epoch != before+1 {
		t.Fatalf("stats epoch %d after publish, want %d", stats.Epoch, before+1)
	}
}

// TestHealthzStaleness: with StaleAfter set, /healthz must flip to 503
// with a JSON reason once the snapshot outlives the threshold, and
// recover to 200 after a reload installs a fresh snapshot.
func TestHealthzStaleness(t *testing.T) {
	f := fixture(t)
	srv, ts := newTestServer(t, Config{StaleAfter: 60 * time.Millisecond}, f.loader())

	var health map[string]string
	getJSON(t, ts.URL+"/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("fresh snapshot reported %v", health)
	}

	time.Sleep(90 * time.Millisecond)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stale snapshot: got %d %s, want 503", resp.StatusCode, body)
	}
	var degraded map[string]string
	if err := json.Unmarshal(body, &degraded); err != nil {
		t.Fatalf("degraded healthz is not JSON: %v in %s", err, body)
	}
	if degraded["status"] != "degraded" || !strings.Contains(degraded["reason"], "stale") {
		t.Fatalf("degraded healthz payload %v", degraded)
	}

	if _, err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("reloaded snapshot reported %v", health)
	}
}

// TestHealthzNoThresholdAlways200: StaleAfter unset keeps the legacy
// always-ok behaviour no matter the snapshot age.
func TestHealthzNoThresholdAlways200(t *testing.T) {
	f := fixture(t)
	_, ts := newTestServer(t, Config{}, f.loader())
	time.Sleep(30 * time.Millisecond)
	var health map[string]string
	getJSON(t, ts.URL+"/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz without threshold reported %v", health)
	}
}
