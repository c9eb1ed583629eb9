package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/bagio"
)

func f64(v float64) *float64 { return &v }

// strideBag records 100 /imu messages and 40 /tf messages for the
// stride and transform tests, timestamps 0.1s apart from base.
func strideBag(t *testing.T) *Bag {
	t.Helper()
	b := newBORA(t)
	rec, err := b.CreateBag("src")
	if err != nil {
		t.Fatal(err)
	}
	base := int64(1_600_000_000) * 1e9
	for i := 0; i < 100; i++ {
		ts := bagio.TimeFromNanos(base + int64(i)*1e8)
		if err := rec.WriteRaw("/imu", "sensor_msgs/Imu", ts, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if i < 40 {
			if err := rec.WriteRaw("/tf", "tf2_msgs/TFMessage", ts, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	bag, err := rec.Close()
	if err != nil {
		t.Fatal(err)
	}
	return bag
}

func TestQueryStride(t *testing.T) {
	bag := strideBag(t)
	counts := func(spec QuerySpec) map[string][]byte {
		t.Helper()
		out := map[string][]byte{}
		if err := bag.Query(spec, func(m MessageRef) error {
			out[m.Conn.Topic] = append(out[m.Conn.Topic], m.Data[0])
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}

	got := counts(QuerySpec{Stride: 3})
	if len(got["/imu"]) != 34 || len(got["/tf"]) != 14 {
		t.Fatalf("stride 3 kept %d /imu, %d /tf; want 34, 14", len(got["/imu"]), len(got["/tf"]))
	}
	for i, v := range got["/imu"] {
		if int(v) != i*3 {
			t.Fatalf("stride 3 /imu[%d] = %d, want %d", i, v, i*3)
		}
	}

	// Stride 0 and 1 deliver everything; negative errors.
	if got := counts(QuerySpec{Stride: 1}); len(got["/imu"]) != 100 {
		t.Errorf("stride 1 kept %d /imu messages", len(got["/imu"]))
	}
	if err := bag.Query(QuerySpec{Stride: -2}, func(MessageRef) error { return nil }); err == nil {
		t.Error("negative stride accepted")
	}

	// Stride counts inside the window: bounding to the first 30 imu
	// messages with stride 10 keeps ordinals 0, 10, 20 of the window.
	win := QuerySpec{
		Topics: []string{"/imu"},
		Start:  bagio.TimeFromNanos(int64(1_600_000_000) * 1e9),
		End:    bagio.TimeFromNanos(int64(1_600_000_000)*1e9 + 29*1e8),
		Stride: 10,
	}
	if got := counts(win); len(got["/imu"]) != 3 {
		t.Errorf("windowed stride kept %v", got["/imu"])
	}

	// The chrono plan agrees with the serial plan per topic.
	serial := counts(QuerySpec{Stride: 7})
	chrono := counts(QuerySpec{Stride: 7, Order: OrderTime})
	for topic := range serial {
		if !bytes.Equal(chrono[topic], serial[topic]) {
			t.Errorf("chrono stride differs on %s", topic)
		}
	}
}

func TestTransformSpecCanonical(t *testing.T) {
	a := TransformSpec{Topics: []string{"/tf", "/imu", "/tf"}, StartSec: f64(2), EndSec: f64(8.5), Stride: 2}
	b := TransformSpec{Topics: []string{"/imu", "/tf"}, StartSec: f64(2.0), EndSec: f64(8.5), Stride: 2}
	ca, err := a.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Errorf("canonical forms differ:\n%s\n%s", ca, cb)
	}
	// Distinct selections encode distinctly, including set-vs-unset
	// zero start bounds and stride 1 vs 2.
	variants := []TransformSpec{
		{Topics: []string{"/imu"}},
		{Topics: []string{"/imu"}, StartSec: f64(0)},
		{Topics: []string{"/imu"}, EndSec: f64(1)},
		{Topics: []string{"/imu"}, Stride: 2},
		{},
	}
	seen := map[string]int{}
	for i, v := range variants {
		c, err := v.Canonical()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if j, dup := seen[string(c)]; dup {
			t.Errorf("variants %d and %d share a canonical form %q", i, j, c)
		}
		seen[string(c)] = i
	}
}

func TestTransformSpecValidation(t *testing.T) {
	bad := []TransformSpec{
		{StartSec: f64(-1)},
		{EndSec: f64(math.NaN())},
		{EndSec: f64(math.Inf(1))},
		{StartSec: f64(5), EndSec: f64(1)},
		{StartSec: f64(1e18)},
		{Stride: -1},
		{Topics: []string{""}},
		{Topics: []string{"/a\nb"}},
		// An end bound at the epoch has no selection: a zero End is "no
		// end bound", and nothing rosbag writes is stamped before 1 ns.
		{EndSec: f64(0)},
		{StartSec: f64(0), EndSec: f64(0)},
		{EndSec: f64(1e-10)},
	}
	for i, ts := range bad {
		if _, err := ts.Canonical(); err == nil {
			t.Errorf("bad spec %d canonicalized", i)
		}
		if _, err := ts.QuerySpec(); err == nil {
			t.Errorf("bad spec %d converted", i)
		}
	}
	ok := TransformSpec{Topics: []string{"/imu"}, StartSec: f64(0), EndSec: f64(1e-9)}
	if _, err := ok.QuerySpec(); err != nil {
		t.Errorf("epoch to 1 ns window rejected: %v", err)
	}
}

func TestTransformSpecQueryWindow(t *testing.T) {
	bag := strideBag(t)
	base := 1_600_000_000.0
	ts := TransformSpec{Topics: []string{"/imu"}, StartSec: f64(base + 1), EndSec: f64(base + 2)}
	spec, err := ts.QuerySpec()
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if err := bag.Query(spec, func(MessageRef) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 11 { // 0.1s apart, inclusive window of one second
		t.Errorf("windowed transform kept %d messages, want 11", n)
	}

	// An explicit epoch end bound is refused rather than silently
	// reading as "no bound".
	if spec, err := (TransformSpec{EndSec: f64(0)}).QuerySpec(); err == nil {
		t.Errorf("explicit end 0 converted to %+v", spec)
	}
}
