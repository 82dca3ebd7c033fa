package raslog

import "testing"

func TestSeverityOrdering(t *testing.T) {
	// The constant order must match the CMCS "increasing order of
	// severity" wording: INFO < WARNING < SEVERE < ERROR < FATAL < FAILURE.
	order := []Severity{Info, Warning, Severe, Error, Fatal, Failure}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Errorf("severity %v not below %v", order[i-1], order[i])
		}
	}
}

func TestSeverityString(t *testing.T) {
	want := map[Severity]string{
		Info:    "INFO",
		Warning: "WARNING",
		Severe:  "SEVERE",
		Error:   "ERROR",
		Fatal:   "FATAL",
		Failure: "FAILURE",
	}
	for sev, name := range want {
		if got := sev.String(); got != name {
			t.Errorf("%d.String() = %q, want %q", int(sev), got, name)
		}
	}
	if got := Severity(99).String(); got != "Severity(99)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestParseSeverityRoundTrip(t *testing.T) {
	for sev := Severity(0); sev < numSeverities; sev++ {
		got, err := ParseSeverity(sev.String())
		if err != nil {
			t.Fatalf("ParseSeverity(%q): %v", sev.String(), err)
		}
		if got != sev {
			t.Errorf("round trip %v -> %v", sev, got)
		}
	}
}

func TestParseSeverityRejectsUnknown(t *testing.T) {
	for _, bad := range []string{"", "fatal", "FATAL ", "CRITICAL"} {
		if _, err := ParseSeverity(bad); err == nil {
			t.Errorf("ParseSeverity(%q) succeeded, want error", bad)
		}
	}
}

func TestIsFatal(t *testing.T) {
	for sev := Severity(0); sev < numSeverities; sev++ {
		want := sev == Fatal || sev == Failure
		if got := sev.IsFatal(); got != want {
			t.Errorf("%v.IsFatal() = %v, want %v", sev, got, want)
		}
	}
}

func TestSeverityValid(t *testing.T) {
	for sev := Severity(0); sev < numSeverities; sev++ {
		if !sev.Valid() {
			t.Errorf("%v.Valid() = false", sev)
		}
	}
	for _, bad := range []Severity{-1, numSeverities, 42} {
		if bad.Valid() {
			t.Errorf("Severity(%d).Valid() = true", int(bad))
		}
	}
}
