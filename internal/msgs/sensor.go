package msgs

// Image is sensor_msgs/Image: an uncompressed camera frame. In the
// Handheld SLAM workload this is the dominant unstructured payload
// (topics A and B of Table II).
type Image struct {
	Header      Header
	Height      uint32
	Width       uint32
	Encoding    string // e.g. "rgb8", "32FC1"
	IsBigEndian uint8
	Step        uint32 // bytes per row
	Data        []byte
}

// TypeName implements Message.
func (m *Image) TypeName() string { return "sensor_msgs/Image" }

// Marshal implements Message.
func (m *Image) Marshal(dst []byte) []byte {
	w := NewWriter(dst)
	m.Header.marshal(w)
	w.U32(m.Height)
	w.U32(m.Width)
	w.String(m.Encoding)
	w.U8(m.IsBigEndian)
	w.U32(m.Step)
	w.ByteArray(m.Data)
	return w.Bytes()
}

// Unmarshal implements Message.
func (m *Image) Unmarshal(b []byte) error {
	r := NewReader(b)
	m.Header.unmarshal(r)
	m.Height = r.U32()
	m.Width = r.U32()
	m.Encoding = r.String()
	m.IsBigEndian = r.U8()
	m.Step = r.U32()
	m.Data = r.ByteArray()
	return r.Finish()
}

// RegionOfInterest is sensor_msgs/RegionOfInterest.
type RegionOfInterest struct {
	XOffset   uint32
	YOffset   uint32
	Height    uint32
	Width     uint32
	DoRectify bool
}

func (roi *RegionOfInterest) marshal(w *Writer) {
	w.U32(roi.XOffset)
	w.U32(roi.YOffset)
	w.U32(roi.Height)
	w.U32(roi.Width)
	w.Bool(roi.DoRectify)
}

func (roi *RegionOfInterest) unmarshal(r *Reader) {
	roi.XOffset = r.U32()
	roi.YOffset = r.U32()
	roi.Height = r.U32()
	roi.Width = r.U32()
	roi.DoRectify = r.Bool()
}

// CameraInfo is sensor_msgs/CameraInfo: camera calibration and pose info
// (topics C and D of Table II — small structured records).
type CameraInfo struct {
	Header          Header
	Height          uint32
	Width           uint32
	DistortionModel string
	D               []float64  // distortion coefficients (variable)
	K               [9]float64 // intrinsic matrix
	R               [9]float64 // rectification matrix
	P               [12]float64
	BinningX        uint32
	BinningY        uint32
	ROI             RegionOfInterest
}

// TypeName implements Message.
func (m *CameraInfo) TypeName() string { return "sensor_msgs/CameraInfo" }

// Marshal implements Message.
func (m *CameraInfo) Marshal(dst []byte) []byte {
	w := NewWriter(dst)
	m.Header.marshal(w)
	w.U32(m.Height)
	w.U32(m.Width)
	w.String(m.DistortionModel)
	w.F64Array(m.D)
	w.F64Fixed(m.K[:])
	w.F64Fixed(m.R[:])
	w.F64Fixed(m.P[:])
	w.U32(m.BinningX)
	w.U32(m.BinningY)
	m.ROI.marshal(w)
	return w.Bytes()
}

// Unmarshal implements Message.
func (m *CameraInfo) Unmarshal(b []byte) error {
	r := NewReader(b)
	m.Header.unmarshal(r)
	m.Height = r.U32()
	m.Width = r.U32()
	m.DistortionModel = r.String()
	m.D = r.F64Array()
	copy(m.K[:], r.F64Fixed(9))
	copy(m.R[:], r.F64Fixed(9))
	copy(m.P[:], r.F64Fixed(12))
	m.BinningX = r.U32()
	m.BinningY = r.U32()
	m.ROI.unmarshal(r)
	return r.Finish()
}

// Imu is sensor_msgs/Imu: orientation, angular velocity and linear
// acceleration with covariances (topic F of Table II). Note the paper's
// Section II observation: an IMU message contains four float64 structures
// each holding a 3-dimensional array — the multi-dimensional structure
// that defeats time-series DBMS ingestion.
type Imu struct {
	Header                       Header
	Orientation                  Quaternion
	OrientationCovariance        [9]float64
	AngularVelocity              Vector3
	AngularVelocityCovariance    [9]float64
	LinearAcceleration           Vector3
	LinearAccelerationCovariance [9]float64
}

// TypeName implements Message.
func (m *Imu) TypeName() string { return "sensor_msgs/Imu" }

// Marshal implements Message.
func (m *Imu) Marshal(dst []byte) []byte {
	w := NewWriter(dst)
	m.Header.marshal(w)
	m.Orientation.marshal(w)
	w.F64Fixed(m.OrientationCovariance[:])
	m.AngularVelocity.marshal(w)
	w.F64Fixed(m.AngularVelocityCovariance[:])
	m.LinearAcceleration.marshal(w)
	w.F64Fixed(m.LinearAccelerationCovariance[:])
	return w.Bytes()
}

// Unmarshal implements Message.
func (m *Imu) Unmarshal(b []byte) error {
	r := NewReader(b)
	m.Header.unmarshal(r)
	m.Orientation.unmarshal(r)
	copy(m.OrientationCovariance[:], r.F64Fixed(9))
	m.AngularVelocity.unmarshal(r)
	copy(m.AngularVelocityCovariance[:], r.F64Fixed(9))
	m.LinearAcceleration.unmarshal(r)
	copy(m.LinearAccelerationCovariance[:], r.F64Fixed(9))
	return r.Finish()
}
