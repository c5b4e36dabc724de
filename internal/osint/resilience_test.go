package osint

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// scriptedServices is a FallibleServices whose LookupIP follows a
// per-key script of outcomes; other methods always succeed.
type scriptedServices struct {
	mu     sync.Mutex
	script map[string][]error // consumed front-to-back; empty => success
	calls  int
	clock  Clock
	delay  time.Duration // charged to clock on every LookupIP
}

func (s *scriptedServices) next(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	q := s.script[key]
	if len(q) == 0 {
		return nil
	}
	err := q[0]
	s.script[key] = q[1:]
	return err
}

func (s *scriptedServices) LookupIP(ctx context.Context, addr string) (IPRecord, bool, error) {
	if s.delay > 0 && s.clock != nil {
		s.clock.Sleep(ctx, s.delay)
	}
	if err := s.next(addr); err != nil {
		return IPRecord{}, false, err
	}
	return IPRecord{Addr: addr, ASN: 64500}, true, nil
}

func (s *scriptedServices) PassiveDNSDomain(ctx context.Context, name string) (DomainRecord, bool, error) {
	return DomainRecord{Name: name}, true, nil
}
func (s *scriptedServices) PassiveDNSIP(ctx context.Context, addr string) ([]string, bool, error) {
	return nil, false, nil
}
func (s *scriptedServices) ProbeURL(ctx context.Context, url string) (URLRecord, bool, error) {
	return URLRecord{URL: url}, true, nil
}

func transientErr(k ProviderKind) error {
	return &ProviderError{Kind: k, Op: "LookupIP", Key: "x", Err: fmt.Errorf("boom: %w", ErrTransient)}
}

func permanentErr(k ProviderKind) error {
	return &ProviderError{Kind: k, Op: "LookupIP", Key: "x", Err: fmt.Errorf("gone: %w", ErrPermanent)}
}

func testResilience(clock Clock) ResilienceConfig {
	cfg := DefaultResilienceConfig()
	cfg.Clock = clock
	return cfg
}

func TestRetryAbsorbsTransientFaults(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	inner := &scriptedServices{script: map[string][]error{
		"1.2.3.4": {transientErr(ProviderIPLookup), transientErr(ProviderIPLookup)},
	}}
	r := NewResilientServices(inner, testResilience(clock))

	rec, ok, err := r.LookupIP(context.Background(), "1.2.3.4")
	if err != nil || !ok || rec.ASN != 64500 {
		t.Fatalf("rec=%+v ok=%v err=%v", rec, ok, err)
	}
	m := r.Metrics().PerKind[ProviderIPLookup]
	if m.Attempts != 3 || m.Retries != 2 || m.Successes != 1 || m.Failures != 0 {
		t.Fatalf("metrics %+v", m)
	}
	// Two backoffs must have elapsed on the fake clock, bounded by the
	// full-jitter caps (100ms and 200ms): nonzero, under 300ms total.
	if s := clock.Slept(); s <= 0 || s >= 300*time.Millisecond {
		t.Fatalf("slept %v, want in (0, 300ms)", s)
	}
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	faults := make([]error, 10)
	for i := range faults {
		faults[i] = transientErr(ProviderIPLookup)
	}
	inner := &scriptedServices{script: map[string][]error{"1.2.3.4": faults}}
	cfg := testResilience(clock)
	cfg.MaxAttempts = 3
	r := NewResilientServices(inner, cfg)

	_, _, err := r.LookupIP(context.Background(), "1.2.3.4")
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err=%v", err)
	}
	m := r.Metrics().PerKind[ProviderIPLookup]
	if m.Attempts != 3 || m.Failures != 1 || m.Successes != 0 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestPermanentErrorSkipsRetry(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	inner := &scriptedServices{script: map[string][]error{
		"1.2.3.4": {permanentErr(ProviderIPLookup)},
	}}
	r := NewResilientServices(inner, testResilience(clock))

	_, _, err := r.LookupIP(context.Background(), "1.2.3.4")
	if !errors.Is(err, ErrPermanent) {
		t.Fatalf("err=%v", err)
	}
	m := r.Metrics().PerKind[ProviderIPLookup]
	if m.Attempts != 1 || m.Retries != 0 {
		t.Fatalf("permanent failure was retried: %+v", m)
	}
	if clock.Slept() != 0 {
		t.Fatalf("slept %v on a permanent failure", clock.Slept())
	}
}

func TestBackoffCapAndDeterminism(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	cfg := testResilience(clock)
	cfg.MaxAttempts = 8
	cfg.BaseBackoff = 100 * time.Millisecond
	cfg.MaxBackoff = 400 * time.Millisecond
	r := NewResilientServices(&scriptedServices{}, cfg)

	var prev time.Duration = -1
	total := time.Duration(0)
	for attempt := 0; attempt < 8; attempt++ {
		d := r.backoff("LookupIP", "k", attempt)
		cap := cfg.BaseBackoff << uint(attempt)
		if cap > cfg.MaxBackoff || cap <= 0 {
			cap = cfg.MaxBackoff
		}
		if d < 0 || d >= cap {
			t.Fatalf("attempt %d: backoff %v outside [0, %v)", attempt, d, cap)
		}
		if d == prev {
			t.Fatalf("attempt %d: jitter repeated exactly (%v)", attempt, d)
		}
		prev = d
		total += d
	}
	// Same seed, same coordinates: identical sequence.
	r2 := NewResilientServices(&scriptedServices{}, cfg)
	for attempt := 0; attempt < 8; attempt++ {
		if r.backoff("LookupIP", "k", attempt) != r2.backoff("LookupIP", "k", attempt) {
			t.Fatal("jitter is not deterministic across instances")
		}
	}
	// Different key decorrelates.
	if r.backoff("LookupIP", "k", 0) == r.backoff("LookupIP", "other", 0) {
		t.Fatal("jitter identical across keys (suspicious)")
	}
}

func TestAttemptTimeoutIsTransient(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	cfg := testResilience(clock)
	cfg.AttemptTimeout = 50 * time.Millisecond
	cfg.MaxAttempts = 2
	// Every attempt takes 80ms on the shared clock: over budget.
	inner := &scriptedServices{clock: clock, delay: 80 * time.Millisecond}
	r := NewResilientServices(inner, cfg)

	_, _, err := r.LookupIP(context.Background(), "1.2.3.4")
	if !errors.Is(err, ErrAttemptTimeout) || !errors.Is(err, ErrTransient) {
		t.Fatalf("err=%v", err)
	}
	m := r.Metrics().PerKind[ProviderIPLookup]
	if m.Timeouts != 2 || m.Attempts != 2 || m.Failures != 1 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestBreakerOpensHalfOpensCloses(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	cfg := testResilience(clock)
	cfg.MaxAttempts = 1
	cfg.BreakerThreshold = 3
	cfg.BreakerCooldown = 10 * time.Second
	perm := func() []error { return []error{permanentErr(ProviderIPLookup)} }
	inner := &scriptedServices{script: map[string][]error{}}
	r := NewResilientServices(inner, cfg)
	ctx := context.Background()

	// Three exhausted calls trip the breaker.
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("10.0.0.%d", i)
		inner.mu.Lock()
		inner.script[key] = perm()
		inner.mu.Unlock()
		if _, _, err := r.LookupIP(ctx, key); !errors.Is(err, ErrPermanent) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if m := r.Metrics().PerKind[ProviderIPLookup]; m.Trips != 1 {
		t.Fatalf("trips=%d, want 1", m.Trips)
	}
	// While open, calls are rejected without touching the backend.
	before := func() int { inner.mu.Lock(); defer inner.mu.Unlock(); return inner.calls }()
	if _, _, err := r.LookupIP(ctx, "10.0.0.9"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("expected ErrCircuitOpen, got %v", err)
	}
	if after := func() int { inner.mu.Lock(); defer inner.mu.Unlock(); return inner.calls }(); after != before {
		t.Fatal("open breaker still called the backend")
	}
	// Other provider kinds are unaffected.
	if _, _, err := r.ProbeURL(ctx, "http://ok.example/x"); err != nil {
		t.Fatalf("url-probe breaker tripped by ip-lookup failures: %v", err)
	}
	// After the cooldown, a half-open probe that succeeds closes it.
	clock.Advance(cfg.BreakerCooldown)
	if _, ok, err := r.LookupIP(ctx, "10.0.0.10"); err != nil || !ok {
		t.Fatalf("half-open probe failed: ok=%v err=%v", ok, err)
	}
	if _, _, err := r.LookupIP(ctx, "10.0.0.11"); err != nil {
		t.Fatalf("breaker did not close after successful probe: %v", err)
	}
}

func TestBreakerReopensOnFailedProbe(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	cfg := testResilience(clock)
	cfg.MaxAttempts = 1
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = 10 * time.Second
	inner := &scriptedServices{script: map[string][]error{
		"a": {permanentErr(ProviderIPLookup)},
		"b": {permanentErr(ProviderIPLookup)},
		"c": {permanentErr(ProviderIPLookup)},
	}}
	r := NewResilientServices(inner, cfg)
	ctx := context.Background()

	r.LookupIP(ctx, "a")
	r.LookupIP(ctx, "b") // trips
	clock.Advance(cfg.BreakerCooldown)
	if _, _, err := r.LookupIP(ctx, "c"); !errors.Is(err, ErrPermanent) {
		t.Fatalf("probe err=%v", err)
	}
	// Failed probe: open again, immediately rejecting.
	if _, _, err := r.LookupIP(ctx, "d"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("expected reopen, got %v", err)
	}
	if m := r.Metrics().PerKind[ProviderIPLookup]; m.Trips != 2 {
		t.Fatalf("trips=%d, want 2", m.Trips)
	}
}

func TestResilientConcurrentCalls(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	cfg := testResilience(clock)
	cfg.BreakerThreshold = 0 // exercise raw retry path under -race
	inner := &scriptedServices{script: map[string][]error{}}
	for i := 0; i < 16; i++ {
		inner.script[fmt.Sprintf("k%d", i)] = []error{transientErr(ProviderIPLookup)}
	}
	r := NewResilientServices(inner, cfg)

	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = r.LookupIP(context.Background(), fmt.Sprintf("k%d", i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	m := r.Metrics().PerKind[ProviderIPLookup]
	if m.Successes != 16 || m.Retries != 16 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestInfallibleAdapterRoundTrip(t *testing.T) {
	w := testWorld(t)
	f := Infallible(w)
	ctx := context.Background()
	var addr string
	for a := range collectIPs(w) {
		addr = a
		break
	}
	rec, ok, err := f.LookupIP(ctx, addr)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if want, _ := w.LookupIP(addr); rec != want {
		t.Fatalf("round trip mismatch: %+v vs %+v", rec, want)
	}
	// Canceled context surfaces as an error through Infallible.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := f.LookupIP(cctx, addr); err == nil {
		t.Fatal("canceled context ignored")
	}
}
