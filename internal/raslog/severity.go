// Package raslog defines the RAS (Reliability, Availability,
// Serviceability) event model used throughout the predictor: the seven
// log attributes of the Blue Gene/L CMCS repository (paper Table 2), the
// severity ladder, the BG/L location grammar, and a streaming log
// serialization format.
package raslog

import "fmt"

// Severity is the SEVERITY attribute of a RAS record. The ordering of
// the constants is the increasing order of severity used by CMCS:
// INFO < WARNING < SEVERE < ERROR < FATAL < FAILURE.
type Severity int

// Severity levels, in increasing order of severity.
const (
	Info Severity = iota
	Warning
	Severe
	Error
	Fatal
	Failure

	numSeverities
)

var severityNames = [...]string{
	Info:    "INFO",
	Warning: "WARNING",
	Severe:  "SEVERE",
	Error:   "ERROR",
	Fatal:   "FATAL",
	Failure: "FAILURE",
}

// String returns the CMCS spelling of the severity (e.g. "FATAL").
func (s Severity) String() string {
	if s < 0 || int(s) >= len(severityNames) {
		return fmt.Sprintf("Severity(%d)", int(s))
	}
	return severityNames[s]
}

// Valid reports whether s is one of the six CMCS severities.
func (s Severity) Valid() bool { return s >= Info && s < numSeverities }

// IsFatal reports whether the severity denotes a fatal event in the
// paper's sense: FATAL and FAILURE records "usually lead to
// application/software crashes" and are the prediction targets. All
// other severities are non-fatal.
func (s Severity) IsFatal() bool { return s == Fatal || s == Failure }

// ParseSeverity converts a CMCS severity spelling back to a Severity.
func ParseSeverity(text string) (Severity, error) {
	for i, name := range severityNames {
		if text == name {
			return Severity(i), nil
		}
	}
	return 0, parsef("raslog: unknown severity %q", text)
}
