package msgs

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bagio"
)

func sampleHeader(seq uint32) Header {
	return Header{Seq: seq, Stamp: bagio.Time{Sec: 100 + seq, NSec: 42}, FrameID: "/world"}
}

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	wire := m.Marshal(nil)
	out := reflect.New(reflect.TypeOf(m).Elem()).Interface().(Message)
	if err := out.Unmarshal(wire); err != nil {
		t.Fatalf("Unmarshal(%s): %v", m.TypeName(), err)
	}
	return out
}

func TestImageRoundTrip(t *testing.T) {
	m := &Image{
		Header:   sampleHeader(1),
		Height:   480,
		Width:    640,
		Encoding: "rgb8",
		Step:     640 * 3,
		Data:     bytes.Repeat([]byte{1, 2, 3}, 640*480),
	}
	got := roundTrip(t, m).(*Image)
	if !reflect.DeepEqual(m, got) {
		t.Error("image round trip mismatch")
	}
	if len(m.Marshal(nil)) < 480*640*3 {
		t.Error("marshaled image smaller than payload")
	}
}

func TestCameraInfoRoundTrip(t *testing.T) {
	m := &CameraInfo{
		Header:          sampleHeader(2),
		Height:          480,
		Width:           640,
		DistortionModel: "plumb_bob",
		D:               []float64{0.1, -0.2, 0.3, 0, 0},
		BinningX:        1,
		BinningY:        1,
		ROI:             RegionOfInterest{Width: 640, Height: 480, DoRectify: true},
	}
	for i := range m.K {
		m.K[i] = float64(i) * 1.5
		m.R[i] = -float64(i)
	}
	for i := range m.P {
		m.P[i] = float64(i) / 3
	}
	got := roundTrip(t, m).(*CameraInfo)
	if !reflect.DeepEqual(m, got) {
		t.Error("camera info round trip mismatch")
	}
}

func TestImuRoundTrip(t *testing.T) {
	m := &Imu{
		Header:             sampleHeader(3),
		Orientation:        Quaternion{X: 0.1, Y: 0.2, Z: 0.3, W: 0.9},
		AngularVelocity:    Vector3{X: 1, Y: 2, Z: 3},
		LinearAcceleration: Vector3{X: -9.8},
	}
	for i := 0; i < 9; i++ {
		m.OrientationCovariance[i] = float64(i)
		m.AngularVelocityCovariance[i] = float64(i) * 2
		m.LinearAccelerationCovariance[i] = float64(i) * 3
	}
	got := roundTrip(t, m).(*Imu)
	if !reflect.DeepEqual(m, got) {
		t.Error("imu round trip mismatch")
	}
}

func TestTFMessageRoundTrip(t *testing.T) {
	m := &TFMessage{Transforms: []TransformStamped{
		{
			Header:       sampleHeader(4),
			ChildFrameID: "/base_link",
			Transform: Transform{
				Translation: Vector3{X: 1, Y: 2, Z: 3},
				Rotation:    Identity(),
			},
		},
		{
			Header:       sampleHeader(5),
			ChildFrameID: "/camera",
			Transform:    Transform{Rotation: Quaternion{X: 1}},
		},
	}}
	got := roundTrip(t, m).(*TFMessage)
	if !reflect.DeepEqual(m, got) {
		t.Error("tf message round trip mismatch")
	}
}

func TestEmptyTFMessage(t *testing.T) {
	m := &TFMessage{}
	got := roundTrip(t, m).(*TFMessage)
	if len(got.Transforms) != 0 {
		t.Errorf("expected empty transforms, got %d", len(got.Transforms))
	}
}

func TestMarkerArrayRoundTrip(t *testing.T) {
	m := &MarkerArray{Markers: []Marker{
		{
			Header:    sampleHeader(6),
			Namespace: "shapes",
			ID:        7,
			Type:      MarkerCube,
			Action:    MarkerActionAdd,
			Pose:      Pose{Position: Point{X: 1}, Orientation: Identity()},
			Scale:     Vector3{X: 1, Y: 1, Z: 1},
			Color:     ColorRGBA{R: 1, A: 1},
			Lifetime:  Duration{Sec: 5},
			Points:    []Point{{X: 0}, {X: 1, Y: 1}},
			Colors:    []ColorRGBA{{G: 1, A: 1}},
			Text:      "label",
		},
		{Header: sampleHeader(7), Type: MarkerSphere, Action: MarkerActionDelete},
	}}
	got := roundTrip(t, m).(*MarkerArray)
	if !reflect.DeepEqual(m, got) {
		t.Error("marker array round trip mismatch")
	}
}

func TestTransformStampedRoundTrip(t *testing.T) {
	m := &TransformStamped{Header: sampleHeader(9), ChildFrameID: "/gripper"}
	got := roundTrip(t, m).(*TransformStamped)
	if !reflect.DeepEqual(m, got) {
		t.Error("transform stamped round trip mismatch")
	}
}

func TestUnmarshalRejectsTruncation(t *testing.T) {
	m := &Imu{Header: sampleHeader(1)}
	wire := m.Marshal(nil)
	for _, cut := range []int{1, 4, len(wire) / 2, len(wire) - 1} {
		var out Imu
		if err := out.Unmarshal(wire[:cut]); err == nil {
			t.Errorf("accepted IMU truncated to %d bytes", cut)
		}
	}
}

func TestUnmarshalRejectsTrailingBytes(t *testing.T) {
	m := &TransformStamped{Header: sampleHeader(1)}
	wire := append(m.Marshal(nil), 0xFF)
	var out TransformStamped
	if err := out.Unmarshal(wire); err == nil {
		t.Error("accepted trailing bytes")
	}
}

func TestUnmarshalRejectsHugeArrayClaim(t *testing.T) {
	// A TFMessage claiming 2^31 transforms but carrying none must fail
	// cleanly rather than allocate.
	w := NewWriter(nil)
	w.U32(1 << 31)
	var out TFMessage
	if err := out.Unmarshal(w.Bytes()); err == nil {
		t.Error("accepted absurd transform count")
	}
	// Same for string lengths.
	var img Image
	hdr := NewWriter(nil)
	hdr.U32(1)                   // seq
	hdr.Time(bagio.Time{Sec: 1}) // stamp
	hdr.U32(0xFFFFFFF0)          // frame_id length, absurd
	if err := img.Unmarshal(hdr.Bytes()); err == nil {
		t.Error("accepted absurd string length")
	}
}

// Property: scalar encode/decode round-trips for the Writer/Reader pair.
func TestScalarRoundTripQuick(t *testing.T) {
	f := func(u8 uint8, u32 uint32, u64 uint64, f32 float32, f64 float64, s string, b []byte) bool {
		w := NewWriter(nil)
		w.U8(u8)
		w.U32(u32)
		w.U64(u64)
		w.F32(f32)
		w.F64(f64)
		w.String(s)
		w.ByteArray(b)
		r := NewReader(w.Bytes())
		if r.U8() != u8 || r.U32() != u32 || r.U64() != u64 {
			return false
		}
		gf32, gf64 := r.F32(), r.F64()
		// NaN does not compare equal; compare bit patterns instead.
		if !eqF32(gf32, f32) || !eqF64(gf64, f64) {
			return false
		}
		if r.String() != s || !bytes.Equal(r.ByteArray(), b) {
			return false
		}
		return r.Finish() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func eqF32(a, b float32) bool { return a == b || (a != a && b != b) }
func eqF64(a, b float64) bool { return a == b || (a != a && b != b) }

// Property: random IMU messages survive a round trip bit-exactly.
func TestImuRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		m := &Imu{
			Header: Header{
				Seq:     rng.Uint32(),
				Stamp:   bagio.Time{Sec: rng.Uint32(), NSec: uint32(rng.Intn(1e9))},
				FrameID: "/imu",
			},
			Orientation:        Quaternion{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
			AngularVelocity:    Vector3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
			LinearAcceleration: Vector3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
		}
		for j := 0; j < 9; j++ {
			m.OrientationCovariance[j] = rng.NormFloat64()
			m.AngularVelocityCovariance[j] = rng.NormFloat64()
			m.LinearAccelerationCovariance[j] = rng.NormFloat64()
		}
		got := roundTrip(t, m).(*Imu)
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("iteration %d: imu round trip mismatch", i)
		}
	}
}

func TestMarshalAppendsToDst(t *testing.T) {
	prefix := []byte("prefix")
	m := &TransformStamped{Header: sampleHeader(1)}
	out := m.Marshal(append([]byte(nil), prefix...))
	if !bytes.HasPrefix(out, prefix) {
		t.Error("Marshal must append to dst")
	}
	var got TransformStamped
	if err := got.Unmarshal(out[len(prefix):]); err != nil {
		t.Errorf("Unmarshal after append: %v", err)
	}
}
