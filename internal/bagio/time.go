package bagio

import (
	"fmt"
	"time"
)

// Time is a ROS timestamp: seconds and nanoseconds since the Unix epoch,
// each stored as an unsigned 32-bit integer as in the ROS wire format.
type Time struct {
	Sec  uint32
	NSec uint32
}

// TimeFromNanos builds a Time from nanoseconds since the epoch. Negative
// values clamp to the zero time.
func TimeFromNanos(ns int64) Time {
	if ns <= 0 {
		return Time{}
	}
	return Time{Sec: uint32(ns / 1e9), NSec: uint32(ns % 1e9)}
}

// Nanos returns the timestamp as nanoseconds since the epoch.
func (t Time) Nanos() int64 { return int64(t.Sec)*1e9 + int64(t.NSec) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool {
	return t.Sec < u.Sec || (t.Sec == u.Sec && t.NSec < u.NSec)
}

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return u.Before(t) }

// Equal reports whether two timestamps are identical.
func (t Time) Equal(u Time) bool { return t == u }

// IsZero reports whether the timestamp is the zero time.
func (t Time) IsZero() bool { return t.Sec == 0 && t.NSec == 0 }

// Add returns the timestamp shifted by d (which may be negative).
func (t Time) Add(d time.Duration) Time { return TimeFromNanos(t.Nanos() + int64(d)) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t.Nanos() - u.Nanos()) }

// String renders the timestamp as sec.nsec.
func (t Time) String() string { return fmt.Sprintf("%d.%09d", t.Sec, t.NSec) }

// MinTime and MaxTime bound the representable range; convenient as open
// interval endpoints for time-range queries.
var (
	MinTime = Time{}
	MaxTime = Time{Sec: ^uint32(0), NSec: 999999999}
)
