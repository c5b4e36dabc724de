package osint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// TestScanPulsesStopsAtCallbackError: fn's error ends the scan and comes
// back unwrapped, after exactly the pulses fn has seen.
func TestScanPulsesStopsAtCallbackError(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodePulses(&buf, testWorld(t).Pulses()[:5]); err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	n := 0
	err := ScanPulses(&buf, func(Pulse) error {
		if n++; n == 3 {
			return stop
		}
		return nil
	})
	if err != stop || n != 3 {
		t.Fatalf("ScanPulses = %v after %d pulses, want the callback's error after 3", err, n)
	}
}

// endless yields 'x' forever: a feed that never sends a newline.
type endless struct{}

func (endless) Read(b []byte) (int, error) {
	for i := range b {
		b[i] = 'x'
	}
	return len(b), nil
}

// TestScanPulsesLineLimit: a line past MaxPulseLine fails with a
// DecodeError instead of buffering without bound.
func TestScanPulsesLineLimit(t *testing.T) {
	err := ScanPulses(endless{}, func(Pulse) error { return nil })
	var de *DecodeError
	if !errors.As(err, &de) || de.Line != 1 || !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("ScanPulses over an endless line = %v, want a line-1 DecodeError wrapping bufio.ErrTooLong", err)
	}
}

// FuzzScanPulses: arbitrary bytes yield well-formed pulses and then
// either nil or a *DecodeError, never a panic. Checked line by line
// against encoding/json: every non-blank line before the error line
// decodes into a Pulse, the pulses passed to fn are exactly those, in
// order, and the error line itself does not decode.
func FuzzScanPulses(f *testing.F) {
	var buf bytes.Buffer
	if err := EncodePulses(&buf, NewWorld(TestConfig()).Pulses()[:4]); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	for cut := 1; cut < len(full); cut += max(1, len(full)/12) {
		f.Add(full[:cut])
	}
	first := full[:bytes.IndexByte(full, '\n')+1]
	for _, s := range []string{
		``,
		"\n\n",
		`{}`,
		`null`,
		`[]`,
		`"pulse"`,
		`42`,
		`hello`,
		"\xff\xfe\x00",
		`{"id":5}`,
		`{"tags":"APT1"}`,
		`{"created":"yesterday"}`,
		`{"indicators":[1,2,3]}`,
		`{"indicators":{"indicator":"1.2.3.4"}}`,
		`{"id":"a"}{"id":"b"}`,
		`{"id":"a",` + "\n" + `"name":"b"}`,
		`{"indicators":[` + strings.Repeat(`{"indicator":"10.0.0.1","type":"IPv4"},`, 2000) + `{}]}`,
		`{"tags":[` + strings.Repeat(`"x",`, 5000) + `"y"]}`,
		strings.Repeat("[", 5000),
	} {
		f.Add([]byte(s))
		f.Add(append(append([]byte{}, first...), s...))
	}
	f.Add(bytes.ReplaceAll(full, []byte("\n"), []byte("\r\n")))

	f.Fuzz(func(t *testing.T, data []byte) {
		var got []Pulse
		err := ScanPulses(bytes.NewReader(data), func(p Pulse) error {
			got = append(got, p)
			return nil
		})
		stop := 0 // 1-based line the scan stopped at; 0 when it read to EOF
		if err != nil {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("untyped error %v", err)
			}
			stop = de.Line
		}
		lines := bytes.Split(data, []byte("\n"))
		if stop > len(lines) {
			t.Fatalf("error at line %d of a %d-line input", stop, len(lines))
		}
		var want []Pulse
		for i, line := range lines {
			line = bytes.TrimSpace(line)
			var p Pulse
			ok := len(line) > 0 && json.Unmarshal(line, &p) == nil
			if i+1 == stop {
				if ok {
					t.Fatalf("line %d rejected (%v) but decodes: %q", stop, err, line)
				}
				break
			}
			if len(line) == 0 {
				continue
			}
			if !ok {
				t.Fatalf("line %d accepted but malformed: %q", i+1, line)
			}
			want = append(want, p)
		}
		if len(got) != len(want) {
			t.Fatalf("passed %d pulses to fn, want %d", len(got), len(want))
		}
		for i := range got {
			g, gerr := json.Marshal(got[i])
			w, werr := json.Marshal(want[i])
			if gerr != nil || werr != nil || !bytes.Equal(g, w) {
				t.Fatalf("pulse %d = %s (%v), want %s (%v)", i, g, gerr, w, werr)
			}
		}
	})
}
