package msgs

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bagio"
)

func TestLaserScanRoundTrip(t *testing.T) {
	m := &LaserScan{
		Header:         sampleHeader(1),
		AngleMin:       -1.57,
		AngleMax:       1.57,
		AngleIncrement: 0.01,
		TimeIncrement:  0.0001,
		ScanTime:       0.1,
		RangeMin:       0.1,
		RangeMax:       30,
		Ranges:         []float32{1.5, 2.5, 3.5, 30},
		Intensities:    []float32{100, 200, 300, 0},
	}
	got := roundTrip(t, m).(*LaserScan)
	if !reflect.DeepEqual(m, got) {
		t.Error("laser scan round trip mismatch")
	}
	empty := roundTrip(t, &LaserScan{Header: sampleHeader(2)}).(*LaserScan)
	if empty.Ranges != nil || empty.Intensities != nil {
		t.Error("empty arrays should decode to nil")
	}
}

func TestNavSatFixRoundTrip(t *testing.T) {
	m := &NavSatFix{
		Header:    sampleHeader(3),
		Status:    1, // sensor_msgs/NavSatStatus STATUS_SBAS_FIX
		Service:   0x0103,
		Latitude:  31.1791,
		Longitude: 121.5897,
		Altitude:  12.5,
	}
	for i := range m.PositionCovariance {
		m.PositionCovariance[i] = float64(i) / 7
	}
	m.PositionCovarianceTyp = 2
	got := roundTrip(t, m).(*NavSatFix)
	if !reflect.DeepEqual(m, got) {
		t.Error("navsatfix round trip mismatch")
	}
	neg := &NavSatFix{Header: sampleHeader(4), Status: -1} // STATUS_NO_FIX
	if roundTrip(t, neg).(*NavSatFix).Status != -1 {
		t.Error("negative status lost")
	}
}

func TestFluidPressureRoundTrip(t *testing.T) {
	m := &FluidPressure{Header: sampleHeader(5), FluidPressure: 101_325, Variance: 2.5}
	got := roundTrip(t, m).(*FluidPressure)
	if !reflect.DeepEqual(m, got) {
		t.Error("fluid pressure round trip mismatch")
	}
}

func TestJointStateRoundTrip(t *testing.T) {
	m := &JointState{
		Header:   sampleHeader(6),
		Name:     []string{"shoulder", "elbow", "wrist"},
		Position: []float64{0.1, -0.5, 1.2},
		Velocity: []float64{0, 0.2, -0.1},
		Effort:   []float64{5, 3, 1},
	}
	got := roundTrip(t, m).(*JointState)
	if !reflect.DeepEqual(m, got) {
		t.Error("joint state round trip mismatch")
	}
	// Absurd name count must be rejected.
	w := NewWriter(nil)
	(&Header{Stamp: bagio.Time{Sec: 1}}).marshal(w)
	w.U32(0xFFFFFFF0)
	var out JointState
	if err := out.Unmarshal(w.Bytes()); err == nil {
		t.Error("absurd name count accepted")
	}
}

func TestCompressedImageRoundTrip(t *testing.T) {
	m := &CompressedImage{Header: sampleHeader(7), Format: "jpeg", Data: []byte{0xFF, 0xD8, 0xFF, 0xE0}}
	got := roundTrip(t, m).(*CompressedImage)
	if !reflect.DeepEqual(m, got) {
		t.Error("compressed image round trip mismatch")
	}
}

func TestPointCloud2RoundTrip(t *testing.T) {
	m := &PointCloud2{
		Header: sampleHeader(8),
		Height: 1,
		Width:  2,
		Fields: []PointField{ // Datatype 7: sensor_msgs/PointField FLOAT32
			{Name: "x", Offset: 0, Datatype: 7, Count: 1},
			{Name: "y", Offset: 4, Datatype: 7, Count: 1},
			{Name: "z", Offset: 8, Datatype: 7, Count: 1},
		},
		PointStep: 12,
		RowStep:   24,
		Data:      make([]byte, 24),
		IsDense:   true,
	}
	got := roundTrip(t, m).(*PointCloud2)
	if !reflect.DeepEqual(m, got) {
		t.Error("point cloud round trip mismatch")
	}
	// Field count beyond remaining bytes must be rejected.
	w := NewWriter(nil)
	(&Header{}).marshal(w)
	w.U32(1)
	w.U32(2)
	w.U32(0xFFFF)
	var out PointCloud2
	if err := out.Unmarshal(w.Bytes()); err == nil {
		t.Error("absurd field count accepted")
	}
}

func TestPoseStampedAndOdometryRoundTrip(t *testing.T) {
	ps := &PoseStamped{Header: sampleHeader(9), Pose: Pose{Position: Point{X: 1, Y: 2, Z: 3}, Orientation: Identity()}}
	if got := roundTrip(t, ps).(*PoseStamped); !reflect.DeepEqual(ps, got) {
		t.Error("pose stamped round trip mismatch")
	}
	od := &Odometry{
		Header:       sampleHeader(10),
		ChildFrameID: "/base_link",
	}
	od.Pose.Pose.Orientation = Identity()
	od.Twist.Linear = Vector3{X: 0.5}
	for i := 0; i < 36; i++ {
		od.Pose.Covariance[i] = float64(i)
		od.Twist.Covariance[i] = -float64(i)
	}
	if got := roundTrip(t, od).(*Odometry); !reflect.DeepEqual(od, got) {
		t.Error("odometry round trip mismatch")
	}
}

func TestPathRoundTrip(t *testing.T) {
	m := &Path{Header: sampleHeader(11)}
	for i := 0; i < 5; i++ {
		m.Poses = append(m.Poses, PoseStamped{
			Header: sampleHeader(uint32(20 + i)),
			Pose:   Pose{Position: Point{X: float64(i)}, Orientation: Identity()},
		})
	}
	got := roundTrip(t, m).(*Path)
	if !reflect.DeepEqual(m, got) {
		t.Error("path round trip mismatch")
	}
	empty := roundTrip(t, &Path{Header: sampleHeader(12)}).(*Path)
	if empty.Poses != nil {
		t.Error("empty path should decode to nil poses")
	}
	// Absurd pose count rejected.
	w := NewWriter(nil)
	(&Header{}).marshal(w)
	w.U32(0xFFFFFF00)
	var out Path
	if err := out.Unmarshal(w.Bytes()); err == nil {
		t.Error("absurd pose count accepted")
	}
}

func TestNewTypesRegistered(t *testing.T) {
	for _, name := range []string{
		"sensor_msgs/LaserScan", "sensor_msgs/NavSatFix",
		"sensor_msgs/FluidPressure", "sensor_msgs/JointState",
		"sensor_msgs/CompressedImage", "sensor_msgs/PointCloud2",
		"geometry_msgs/PoseStamped", "nav_msgs/Odometry", "nav_msgs/Path",
	} {
		m, err := New(name)
		if err != nil {
			t.Errorf("New(%s): %v", name, err)
			continue
		}
		if m.TypeName() != name {
			t.Errorf("New(%s).TypeName() = %s", name, m.TypeName())
		}
	}
}

// Property: LaserScan round trips for arbitrary range vectors.
func TestLaserScanQuick(t *testing.T) {
	f := func(ranges []float32, sec uint32) bool {
		// NaN breaks DeepEqual; normalize.
		for i, v := range ranges {
			if v != v {
				ranges[i] = 0
			}
		}
		m := &LaserScan{Header: Header{Stamp: bagio.Time{Sec: sec}}, Ranges: ranges}
		var out LaserScan
		if err := out.Unmarshal(m.Marshal(nil)); err != nil {
			return false
		}
		if len(ranges) == 0 {
			return out.Ranges == nil
		}
		return reflect.DeepEqual(out.Ranges, ranges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
