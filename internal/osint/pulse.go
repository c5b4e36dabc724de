package osint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Indicator is one IOC entry in a pulse, in AlienVault OTX wire format.
// Values may be defanged (hxxp://, [.]) exactly as real feeds deliver
// them; the TRAIL collector refangs during parsing.
type Indicator struct {
	Indicator string `json:"indicator"`
	Type      string `json:"type"`
}

// Pulse is an attributed incident report in OTX wire format: a set of
// IOCs, free-form tags (which may be APT aliases), and a creation time.
type Pulse struct {
	ID         string      `json:"id"`
	Name       string      `json:"name"`
	Created    time.Time   `json:"created"`
	Tags       []string    `json:"tags"`
	Indicators []Indicator `json:"indicators"`

	// TrueAPT is the generating group's roster index. It is ground truth
	// available only because the world is synthetic; the TRAIL collector
	// never reads it (it resolves Tags like the real system), but the
	// evaluation harness uses it to score attribution.
	TrueAPT int `json:"-"`
	// Month is the simulation month index of the event.
	Month int `json:"-"`
}

// EncodePulses writes pulses as newline-delimited JSON, the storage
// format used by the cmd/trail tooling.
func EncodePulses(w io.Writer, pulses []Pulse) error {
	enc := json.NewEncoder(w)
	for i := range pulses {
		if err := enc.Encode(&pulses[i]); err != nil {
			return fmt.Errorf("osint: encode pulse %d: %w", i, err)
		}
	}
	return nil
}

// maxPulseLine bounds one NDJSON line, so a feed that never sends a
// newline fails with a DecodeError instead of growing the buffer without
// limit. It is far above any pulse the world or a real OTX export holds.
const maxPulseLine = 32 << 20

// DecodeError reports the NDJSON line at which ScanPulses stopped: a line
// that does not decode into a Pulse, a line longer than 32 MiB, or a read
// error. Line numbers start at 1.
type DecodeError struct {
	Line int
	Err  error
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("osint: decode pulse at line %d: %v", e.Line, e.Err)
}

func (e *DecodeError) Unwrap() error { return e.Err }

// ScanPulses reads newline-delimited pulse JSON from r and calls fn with
// each pulse as soon as its line is complete, so a live producer's pulses
// flow through before it closes r. Blank lines are skipped. It returns nil
// at EOF, a *DecodeError at the first malformed line (every pulse before
// it has been passed to fn), or the first error fn returns, unwrapped.
func ScanPulses(r io.Reader, fn func(Pulse) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxPulseLine)
	line := 1
	for ; sc.Scan(); line++ {
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		var p Pulse
		if err := json.Unmarshal(b, &p); err != nil {
			return &DecodeError{Line: line, Err: err}
		}
		if err := fn(p); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return &DecodeError{Line: line, Err: err}
	}
	return nil
}
