package msgs

// Additional sensor and state message types the paper's introduction
// names among robotic data ("GPS locations, inertial measurements,
// pressures … images, laser scans, videos", "joint angles, transpose
// vectors, altitude, latitude"): LaserScan, NavSatFix, FluidPressure,
// JointState, CompressedImage, PointCloud2 and Odometry/PoseStamped.

// LaserScan is sensor_msgs/LaserScan: one planar lidar sweep.
type LaserScan struct {
	Header         Header
	AngleMin       float32
	AngleMax       float32
	AngleIncrement float32
	TimeIncrement  float32
	ScanTime       float32
	RangeMin       float32
	RangeMax       float32
	Ranges         []float32
	Intensities    []float32
}

// TypeName implements Message.
func (m *LaserScan) TypeName() string { return "sensor_msgs/LaserScan" }

func f32Array(w *Writer, vs []float32) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.F32(v)
	}
}

func readF32Array(r *Reader) []float32 {
	n := r.U32()
	if r.Err() != nil || n == 0 {
		return nil
	}
	if int(n)*4 > r.Remaining() {
		r.err = errTruncatedArray
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = r.F32()
	}
	return out
}

// Marshal implements Message.
func (m *LaserScan) Marshal(dst []byte) []byte {
	w := NewWriter(dst)
	m.Header.marshal(w)
	w.F32(m.AngleMin)
	w.F32(m.AngleMax)
	w.F32(m.AngleIncrement)
	w.F32(m.TimeIncrement)
	w.F32(m.ScanTime)
	w.F32(m.RangeMin)
	w.F32(m.RangeMax)
	f32Array(w, m.Ranges)
	f32Array(w, m.Intensities)
	return w.Bytes()
}

// Unmarshal implements Message.
func (m *LaserScan) Unmarshal(b []byte) error {
	r := NewReader(b)
	m.Header.unmarshal(r)
	m.AngleMin = r.F32()
	m.AngleMax = r.F32()
	m.AngleIncrement = r.F32()
	m.TimeIncrement = r.F32()
	m.ScanTime = r.F32()
	m.RangeMin = r.F32()
	m.RangeMax = r.F32()
	m.Ranges = readF32Array(r)
	m.Intensities = readF32Array(r)
	return r.Finish()
}

// NavSatFix is sensor_msgs/NavSatFix: a GPS fix.
type NavSatFix struct {
	Header                Header
	Status                int8
	Service               uint16
	Latitude              float64
	Longitude             float64
	Altitude              float64
	PositionCovariance    [9]float64
	PositionCovarianceTyp uint8
}

// TypeName implements Message.
func (m *NavSatFix) TypeName() string { return "sensor_msgs/NavSatFix" }

// Marshal implements Message.
func (m *NavSatFix) Marshal(dst []byte) []byte {
	w := NewWriter(dst)
	m.Header.marshal(w)
	w.U8(uint8(m.Status))
	w.U8(uint8(m.Service))
	w.U8(uint8(m.Service >> 8))
	w.F64(m.Latitude)
	w.F64(m.Longitude)
	w.F64(m.Altitude)
	w.F64Fixed(m.PositionCovariance[:])
	w.U8(m.PositionCovarianceTyp)
	return w.Bytes()
}

// Unmarshal implements Message.
func (m *NavSatFix) Unmarshal(b []byte) error {
	r := NewReader(b)
	m.Header.unmarshal(r)
	m.Status = int8(r.U8())
	lo, hi := r.U8(), r.U8()
	m.Service = uint16(lo) | uint16(hi)<<8
	m.Latitude = r.F64()
	m.Longitude = r.F64()
	m.Altitude = r.F64()
	copy(m.PositionCovariance[:], r.F64Fixed(9))
	m.PositionCovarianceTyp = r.U8()
	return r.Finish()
}

// FluidPressure is sensor_msgs/FluidPressure (barometer/altimeter).
type FluidPressure struct {
	Header        Header
	FluidPressure float64 // Pascals
	Variance      float64
}

// TypeName implements Message.
func (m *FluidPressure) TypeName() string { return "sensor_msgs/FluidPressure" }

// Marshal implements Message.
func (m *FluidPressure) Marshal(dst []byte) []byte {
	w := NewWriter(dst)
	m.Header.marshal(w)
	w.F64(m.FluidPressure)
	w.F64(m.Variance)
	return w.Bytes()
}

// Unmarshal implements Message.
func (m *FluidPressure) Unmarshal(b []byte) error {
	r := NewReader(b)
	m.Header.unmarshal(r)
	m.FluidPressure = r.F64()
	m.Variance = r.F64()
	return r.Finish()
}

// JointState is sensor_msgs/JointState: manipulator joint angles.
type JointState struct {
	Header   Header
	Name     []string
	Position []float64
	Velocity []float64
	Effort   []float64
}

// TypeName implements Message.
func (m *JointState) TypeName() string { return "sensor_msgs/JointState" }

// Marshal implements Message.
func (m *JointState) Marshal(dst []byte) []byte {
	w := NewWriter(dst)
	m.Header.marshal(w)
	w.U32(uint32(len(m.Name)))
	for _, n := range m.Name {
		w.String(n)
	}
	w.F64Array(m.Position)
	w.F64Array(m.Velocity)
	w.F64Array(m.Effort)
	return w.Bytes()
}

// Unmarshal implements Message.
func (m *JointState) Unmarshal(b []byte) error {
	r := NewReader(b)
	m.Header.unmarshal(r)
	n := r.U32()
	if err := r.Err(); err != nil {
		return err
	}
	if n > 0 {
		if int(n) > r.Remaining() { // each name needs ≥4 bytes
			return errTruncatedArray
		}
		m.Name = make([]string, n)
		for i := range m.Name {
			m.Name[i] = r.String()
		}
	} else {
		m.Name = nil
	}
	m.Position = r.F64Array()
	m.Velocity = r.F64Array()
	m.Effort = r.F64Array()
	return r.Finish()
}

// CompressedImage is sensor_msgs/CompressedImage (video frames).
type CompressedImage struct {
	Header Header
	Format string // e.g. "jpeg", "png"
	Data   []byte
}

// TypeName implements Message.
func (m *CompressedImage) TypeName() string { return "sensor_msgs/CompressedImage" }

// Marshal implements Message.
func (m *CompressedImage) Marshal(dst []byte) []byte {
	w := NewWriter(dst)
	m.Header.marshal(w)
	w.String(m.Format)
	w.ByteArray(m.Data)
	return w.Bytes()
}

// Unmarshal implements Message.
func (m *CompressedImage) Unmarshal(b []byte) error {
	r := NewReader(b)
	m.Header.unmarshal(r)
	m.Format = r.String()
	m.Data = r.ByteArray()
	return r.Finish()
}

// PointField is sensor_msgs/PointField: one channel of a point cloud.
type PointField struct {
	Name     string
	Offset   uint32
	Datatype uint8
	Count    uint32
}

func (f *PointField) marshal(w *Writer) {
	w.String(f.Name)
	w.U32(f.Offset)
	w.U8(f.Datatype)
	w.U32(f.Count)
}

func (f *PointField) unmarshal(r *Reader) {
	f.Name = r.String()
	f.Offset = r.U32()
	f.Datatype = r.U8()
	f.Count = r.U32()
}

// PointCloud2 is sensor_msgs/PointCloud2: the point-cloud payload SLAM
// builds from depth images.
type PointCloud2 struct {
	Header      Header
	Height      uint32
	Width       uint32
	Fields      []PointField
	IsBigEndian bool
	PointStep   uint32
	RowStep     uint32
	Data        []byte
	IsDense     bool
}

// TypeName implements Message.
func (m *PointCloud2) TypeName() string { return "sensor_msgs/PointCloud2" }

// Marshal implements Message.
func (m *PointCloud2) Marshal(dst []byte) []byte {
	w := NewWriter(dst)
	m.Header.marshal(w)
	w.U32(m.Height)
	w.U32(m.Width)
	w.U32(uint32(len(m.Fields)))
	for i := range m.Fields {
		m.Fields[i].marshal(w)
	}
	w.Bool(m.IsBigEndian)
	w.U32(m.PointStep)
	w.U32(m.RowStep)
	w.ByteArray(m.Data)
	w.Bool(m.IsDense)
	return w.Bytes()
}

// Unmarshal implements Message.
func (m *PointCloud2) Unmarshal(b []byte) error {
	r := NewReader(b)
	m.Header.unmarshal(r)
	m.Height = r.U32()
	m.Width = r.U32()
	n := r.U32()
	if err := r.Err(); err != nil {
		return err
	}
	if n > 0 {
		if int(n)*13 > r.Remaining() { // minimum encoded field size
			return errTruncatedArray
		}
		m.Fields = make([]PointField, n)
		for i := range m.Fields {
			m.Fields[i].unmarshal(r)
		}
	} else {
		m.Fields = nil
	}
	m.IsBigEndian = r.Bool()
	m.PointStep = r.U32()
	m.RowStep = r.U32()
	m.Data = r.ByteArray()
	m.IsDense = r.Bool()
	return r.Finish()
}
