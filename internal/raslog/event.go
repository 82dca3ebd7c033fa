package raslog

import (
	"fmt"
	"math"
	"time"
)

// TimeInRange reports whether t is a time a record may carry: from the
// Unix epoch to the last nanosecond that int64 nanoseconds since it
// hold, 2262-04-11T23:47:16.854775807Z. Inside that range UnixNano is
// exact and never negative, so the difference of any two such times is
// an exact int64, and the predictor subtracts times as such integers.
// Every door refuses a record outside it: both decoders, the gate's
// peek, the CFDR reader, both writers (through Validate), online ingest
// and Engine.Restore. BG/L logs span 2004–2006.
func TimeInRange(t time.Time) bool {
	s := t.Unix()
	return s >= 0 && (s < maxSec || s == maxSec && int64(t.Nanosecond()) <= maxNsec)
}

// maxSec and maxNsec are the second and nanosecond the range ends in.
const maxSec, maxNsec = math.MaxInt64 / int64(time.Second), math.MaxInt64 % int64(time.Second)

// NoJob is the JOB ID value for records not attributable to a user job
// (for example service-card or link-card events raised by CMCS itself).
const NoJob int64 = -1

// Event is a single RAS record with the seven attributes of paper
// Table 2.
type Event struct {
	// RecID is a monotonically increasing record identifier assigned by
	// the logging mechanism. It is not one of the seven attributes but
	// every DB2 dump carries one; it breaks ties among same-timestamp
	// records.
	RecID int64

	// Type is the EVENT TYPE attribute: "the mechanism through which the
	// event is recorded, mostly RAS".
	Type string

	// Time is the EVENT TIME attribute. CMCS checks at sub-millisecond
	// granularity but records timestamps in seconds, which is why raw
	// logs contain many same-second duplicates.
	Time time.Time

	// JobID is the JOB ID attribute: the job that detects the event, or
	// NoJob.
	JobID int64

	// Location is the parsed LOCATION attribute.
	Location Location

	// EntryData is the ENTRY DATA attribute: a short description of the
	// event. Phase 1 categorization keys off keywords in this field.
	EntryData string

	// Facility is the FACILITY attribute: the service or hardware
	// component that experienced the event (e.g. KERNEL, LINKCARD,
	// MMCS, APP).
	Facility string

	// Severity is the SEVERITY attribute.
	Severity Severity
}

// EventTypeRAS is the EVENT TYPE carried by almost all records.
const EventTypeRAS = "RAS"

// IsFatal reports whether the record is a fatal event (severity FATAL
// or FAILURE) — the prediction target.
func (e *Event) IsFatal() bool { return e.Severity.IsFatal() }

// String renders a one-line human-readable form (not the serialization
// format; see Writer).
func (e *Event) String() string {
	return fmt.Sprintf("#%d %s %s job=%d loc=%s fac=%s sev=%s %q",
		e.RecID, e.Type, e.Time.UTC().Format(time.RFC3339), e.JobID,
		e.Location, e.Facility, e.Severity, e.EntryData)
}

// Before orders events by time, breaking ties by RecID so that sorting
// is deterministic for the many same-second records in a raw log.
func (e *Event) Before(other *Event) bool {
	if !e.Time.Equal(other.Time) {
		return e.Time.Before(other.Time)
	}
	return e.RecID < other.RecID
}

// Validate checks structural invariants a well-formed record satisfies,
// whatever it is encoded in. (The pipe dialect reserves more: see
// Writer.Write.)
func (e *Event) Validate() error {
	switch {
	case e.Type == "":
		return refusef(e.RecID, "empty event type")
	case !TimeInRange(e.Time):
		return refusef(e.RecID, "time %s out of range", e.Time.UTC().Format(time.RFC3339Nano))
	case !e.Severity.Valid():
		return refusef(e.RecID, "invalid severity %d", int(e.Severity))
	}
	return nil
}

// refusef builds the error refusing record id, as Validate and the
// writers word it.
func refusef(id int64, format string, args ...any) error {
	//bglvet:ignore hotpathalloc error construction runs only for a record the writers refuse, which never reaches their encoders
	return fmt.Errorf("raslog: record %d: %s", id, fmt.Sprintf(format, args...))
}

// SortEvents orders events in place by (Time, RecID).
func SortEvents(events []Event) {
	// Insertion of sort.Slice here would be fine, but logs are huge and
	// nearly sorted (generators and real CMCS dumps emit in time order),
	// so use a simple binary-insertion pass that is O(n) when presorted.
	for i := 1; i < len(events); i++ {
		if events[i-1].Before(&events[i]) || !events[i].Before(&events[i-1]) {
			continue
		}
		// Find insertion point for events[i] in events[:i].
		lo, hi := 0, i
		for lo < hi {
			mid := (lo + hi) / 2
			if events[mid].Before(&events[i]) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		ev := events[i]
		copy(events[lo+1:i+1], events[lo:i])
		events[lo] = ev
	}
}
