package osint

import (
	"context"
	"errors"
	"fmt"
)

// This file defines the error-aware enrichment contract. The original
// Services interface is infallible — a lookup either finds data or it
// doesn't — which matches the synthetic World but not real OSINT
// providers, which time out, throttle, and go down. FallibleServices is
// the context-aware, error-returning variant the resilience middleware
// (resilience.go) and the fault injector (chaos.go) speak. Infallible
// lifts a plain Services into it; the TKG builder lowers it back to
// Services itself, counting every error as it does.

// ProviderKind identifies the upstream enrichment provider class. The
// circuit breaker and the metrics are tracked per kind: the paper's
// collector talks to three independent services (IP lookup, passive DNS,
// URL probing), and an outage of one must not blacklist the others.
type ProviderKind int

const (
	// ProviderIPLookup backs LookupIP (dig/whois/geo).
	ProviderIPLookup ProviderKind = iota
	// ProviderPassiveDNS backs PassiveDNSDomain and PassiveDNSIP.
	ProviderPassiveDNS
	// ProviderURLProbe backs ProbeURL.
	ProviderURLProbe

	// NumProviderKinds is the number of distinct provider kinds.
	NumProviderKinds = 3
)

// String names the provider kind.
func (k ProviderKind) String() string {
	switch k {
	case ProviderIPLookup:
		return "ip-lookup"
	case ProviderPassiveDNS:
		return "passive-dns"
	case ProviderURLProbe:
		return "url-probe"
	default:
		return fmt.Sprintf("provider(%d)", int(k))
	}
}

// Sentinel error classes. ProviderError wraps exactly one of the first
// two so errors.Is can classify any enrichment failure.
var (
	// ErrTransient marks failures worth retrying: timeouts, throttling,
	// flaky connections.
	ErrTransient = errors.New("transient provider failure")
	// ErrPermanent marks failures that will not heal with retries: auth
	// revoked, endpoint gone, key blacklisted.
	ErrPermanent = errors.New("permanent provider failure")
	// ErrCircuitOpen is returned by the resilience middleware when the
	// breaker for a provider kind is open and the call was not attempted.
	ErrCircuitOpen = errors.New("circuit breaker open")
	// ErrAttemptTimeout marks an attempt that exceeded the per-attempt
	// budget; it is transient.
	ErrAttemptTimeout = errors.New("attempt timed out")
)

// ProviderError is the error type produced by enrichment providers and
// middleware. It records which provider failed, on what operation and
// key, and whether the failure is worth retrying.
type ProviderError struct {
	Kind ProviderKind
	Op   string // "LookupIP", "PassiveDNSDomain", ...
	Key  string // the queried indicator
	Err  error  // wraps ErrTransient or ErrPermanent (possibly deeper causes)
}

// Error implements error.
func (e *ProviderError) Error() string {
	return fmt.Sprintf("osint: %s %s(%q): %v", e.Kind, e.Op, e.Key, e.Err)
}

// Unwrap exposes the cause chain.
func (e *ProviderError) Unwrap() error { return e.Err }

// IsTransient reports whether err is a retryable enrichment failure.
// Unclassified errors are treated as transient (retrying an unknown
// failure is the safe default; the attempt cap bounds the cost).
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrPermanent) || errors.Is(err, ErrCircuitOpen) {
		return false
	}
	return true
}

// FallibleServices is the error-aware twin of Services. Implementations
// must honour ctx cancellation. The bool result keeps the Services
// semantics ("was there data for this key") and is only meaningful when
// the error is nil.
type FallibleServices interface {
	LookupIP(ctx context.Context, addr string) (IPRecord, bool, error)
	PassiveDNSDomain(ctx context.Context, name string) (DomainRecord, bool, error)
	PassiveDNSIP(ctx context.Context, addr string) ([]string, bool, error)
	ProbeURL(ctx context.Context, url string) (URLRecord, bool, error)
}

// Infallible adapts a plain Services into a FallibleServices that never
// fails (beyond ctx cancellation). The synthetic World enters the
// resilience stack through this adapter.
func Infallible(s Services) FallibleServices { return infallible{s} }

type infallible struct{ s Services }

func (a infallible) LookupIP(ctx context.Context, addr string) (IPRecord, bool, error) {
	if err := ctx.Err(); err != nil {
		return IPRecord{}, false, err
	}
	rec, ok := a.s.LookupIP(addr)
	return rec, ok, nil
}

func (a infallible) PassiveDNSDomain(ctx context.Context, name string) (DomainRecord, bool, error) {
	if err := ctx.Err(); err != nil {
		return DomainRecord{}, false, err
	}
	rec, ok := a.s.PassiveDNSDomain(name)
	return rec, ok, nil
}

func (a infallible) PassiveDNSIP(ctx context.Context, addr string) ([]string, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	doms, ok := a.s.PassiveDNSIP(addr)
	return doms, ok, nil
}

func (a infallible) ProbeURL(ctx context.Context, url string) (URLRecord, bool, error) {
	if err := ctx.Err(); err != nil {
		return URLRecord{}, false, err
	}
	rec, ok := a.s.ProbeURL(url)
	return rec, ok, nil
}
