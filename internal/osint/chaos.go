package osint

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"time"
)

// ChaosServices is a deterministic fault injector around a Services: the
// test substrate for the resilience middleware and the TKG's graceful
// degradation. Every decision is a pure function of (Seed, operation,
// key, per-key attempt number), so a chaotic run is exactly reproducible
// — and, when every injected fault is transient and absorbed by retries,
// the downstream graph is bit-identical to a fault-free build.
//
// Four fault classes, mirroring how real OSINT providers misbehave:
//
//   - transient errors (rate TransientRate, per attempt): 503s, throttles,
//     connection resets — retrying heals them;
//   - permanent failures (rate PermanentRate, per key): the provider
//     simply cannot serve this indicator — retrying never helps;
//   - latency spikes (rate LatencyRate, per attempt): the response
//     arrives, but only after Latency on the configured clock — tripping
//     per-attempt timeout budgets;
//   - malformed records (rate MalformedRate, per key): the provider
//     answers with a partial record (missing geo data, truncated DNS
//     history) — no error, just degraded content.

// ChaosConfig tunes the injector. Zero rates disable the corresponding
// fault class.
type ChaosConfig struct {
	// Seed drives every injection decision.
	Seed int64
	// TransientRate is the per-attempt probability of a retryable error.
	TransientRate float64
	// MaxConsecutiveTransient caps how many times in a row one key can
	// fail transiently (0 = unlimited). Setting it below the middleware's
	// MaxAttempts guarantees retries always absorb transient faults.
	MaxConsecutiveTransient int
	// PermanentRate is the per-key probability the provider can never
	// serve that indicator.
	PermanentRate float64
	// LatencyRate is the per-attempt probability of a latency spike.
	LatencyRate float64
	// Latency is the spike duration, charged to Clock.
	Latency time.Duration
	// MalformedRate is the per-key probability of partial records.
	MalformedRate float64
	// Clock is charged for latency spikes; nil means WallClock.
	Clock Clock
}

// ChaosCounters reports how many faults of each class were injected.
type ChaosCounters struct {
	Calls, Transient, Permanent, Latency, Malformed int64
}

// ChaosServices implements FallibleServices over an inner Services with
// seeded fault injection. Safe for concurrent use.
type ChaosServices struct {
	inner Services
	cfg   ChaosConfig

	mu       sync.Mutex
	attempts map[string]int // per (op,key): how many attempts so far
	streak   map[string]int // per (op,key): current consecutive transient failures
	counters ChaosCounters
}

// NewChaosServices wraps inner with the given fault profile.
func NewChaosServices(inner Services, cfg ChaosConfig) *ChaosServices {
	if cfg.Clock == nil {
		cfg.Clock = WallClock
	}
	return &ChaosServices{
		inner:    inner,
		cfg:      cfg,
		attempts: make(map[string]int),
		streak:   make(map[string]int),
	}
}

// NewChaosStack is the fault stack behind the degradation experiments
// and the CLI's -chaos/-transient flags: inner -> chaos injector (at most
// 3 transient faults in a row per key) -> retry/breaker middleware (5
// attempts), both on one auto-advancing manual clock so backoff costs no
// wall time. Its behaviour is a pure function of seed.
func NewChaosStack(inner Services, seed int64, permanent, transient float64) *ResilientServices {
	clock := NewManualClock(time.Unix(0, 0)).AutoAdvance(time.Millisecond)
	chaos := NewChaosServices(inner, ChaosConfig{
		Seed:                    seed,
		PermanentRate:           permanent,
		TransientRate:           transient,
		MaxConsecutiveTransient: 3,
		Clock:                   clock,
	})
	rcfg := DefaultResilienceConfig()
	rcfg.Clock = clock
	rcfg.MaxAttempts = 5
	return NewResilientServices(chaos, rcfg)
}

// Counters returns a snapshot of the injection counters.
func (c *ChaosServices) Counters() ChaosCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters
}

// chaosHash maps (seed, class, op, key, n) to a pseudo-uniform [0,1).
func chaosHash(seed int64, class, op, key string, n int) float64 {
	h := fnv.New64a()
	var b [8]byte
	for i, v := 0, uint64(seed); i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(class))
	h.Write([]byte{0})
	h.Write([]byte(op))
	h.Write([]byte{0})
	h.Write([]byte(key))
	b[0] = byte(n)
	b[1] = byte(n >> 8)
	b[2] = byte(n >> 16)
	h.Write(b[:3])
	return float64(h.Sum64()%(1<<52)) / float64(uint64(1)<<52)
}

// inject decides the fate of one attempt at op(key). It returns a non-nil
// error for injected failures, and reports whether the (successful)
// response must be served malformed.
func (c *ChaosServices) inject(ctx context.Context, kind ProviderKind, op, key string) (malformed bool, err error) {
	ck := op + "\x00" + key
	c.mu.Lock()
	n := c.attempts[ck]
	c.attempts[ck] = n + 1
	streak := c.streak[ck]
	c.counters.Calls++
	c.mu.Unlock()

	seed := c.cfg.Seed
	if c.cfg.PermanentRate > 0 && chaosHash(seed, "perm", op, key, 0) < c.cfg.PermanentRate {
		c.mu.Lock()
		c.counters.Permanent++
		c.mu.Unlock()
		return false, &ProviderError{Kind: kind, Op: op, Key: key,
			Err: fmt.Errorf("injected outage: %w", ErrPermanent)}
	}
	if c.cfg.LatencyRate > 0 && chaosHash(seed, "lat", op, key, n) < c.cfg.LatencyRate {
		c.mu.Lock()
		c.counters.Latency++
		c.mu.Unlock()
		if serr := c.cfg.Clock.Sleep(ctx, c.cfg.Latency); serr != nil {
			return false, serr
		}
	}
	if c.cfg.TransientRate > 0 &&
		(c.cfg.MaxConsecutiveTransient <= 0 || streak < c.cfg.MaxConsecutiveTransient) &&
		chaosHash(seed, "trans", op, key, n) < c.cfg.TransientRate {
		c.mu.Lock()
		c.counters.Transient++
		c.streak[ck] = streak + 1
		c.mu.Unlock()
		return false, &ProviderError{Kind: kind, Op: op, Key: key,
			Err: fmt.Errorf("injected flake (attempt %d): %w", n, ErrTransient)}
	}
	c.mu.Lock()
	c.streak[ck] = 0
	c.mu.Unlock()
	if c.cfg.MalformedRate > 0 && chaosHash(seed, "mal", op, key, 0) < c.cfg.MalformedRate {
		c.mu.Lock()
		c.counters.Malformed++
		c.mu.Unlock()
		return true, nil
	}
	return false, nil
}

// LookupIP implements FallibleServices.
func (c *ChaosServices) LookupIP(ctx context.Context, addr string) (IPRecord, bool, error) {
	malformed, err := c.inject(ctx, ProviderIPLookup, "LookupIP", addr)
	if err != nil {
		return IPRecord{}, false, err
	}
	rec, ok := c.inner.LookupIP(addr)
	if ok && malformed {
		// Partial record: the address resolves but the registry metadata
		// is missing — the shape of an incomplete whois answer.
		rec.Country, rec.Issuer = "", ""
		rec.Lat, rec.Lon = 0, 0
	}
	return rec, ok, nil
}

// PassiveDNSDomain implements FallibleServices.
func (c *ChaosServices) PassiveDNSDomain(ctx context.Context, name string) (DomainRecord, bool, error) {
	malformed, err := c.inject(ctx, ProviderPassiveDNS, "PassiveDNSDomain", name)
	if err != nil {
		return DomainRecord{}, false, err
	}
	rec, ok := c.inner.PassiveDNSDomain(name)
	if ok && malformed {
		// Truncated history: record counts lost, resolution list halved.
		rec.Counts = DNSRecordCounts{}
		rec.ARecords = rec.ARecords[:len(rec.ARecords)/2]
		rec.Registrar = ""
	}
	return rec, ok, nil
}

// PassiveDNSIP implements FallibleServices.
func (c *ChaosServices) PassiveDNSIP(ctx context.Context, addr string) ([]string, bool, error) {
	malformed, err := c.inject(ctx, ProviderPassiveDNS, "PassiveDNSIP", addr)
	if err != nil {
		return nil, false, err
	}
	doms, ok := c.inner.PassiveDNSIP(addr)
	if ok && malformed {
		doms = doms[:len(doms)/2]
	}
	return doms, ok, nil
}

// ProbeURL implements FallibleServices.
func (c *ChaosServices) ProbeURL(ctx context.Context, url string) (URLRecord, bool, error) {
	malformed, err := c.inject(ctx, ProviderURLProbe, "ProbeURL", url)
	if err != nil {
		return URLRecord{}, false, err
	}
	rec, ok := c.inner.ProbeURL(url)
	if ok && malformed {
		// Headers lost, body metadata kept — a truncated probe archive.
		rec.Server, rec.ServerOS, rec.Encoding = "", "", ""
		rec.Services = nil
	}
	return rec, ok, nil
}
