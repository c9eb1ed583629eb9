// Package msgdef carries the ROS message definition texts for the types
// in internal/msgs and computes their MD5 checksums for connection
// records. ROS computes a type's MD5 over a normalized definition —
// comments stripped, constants kept, nested types replaced by their own
// MD5s. This implementation follows the same normalization rules over the
// self-contained definitions below, so checksums are stable and detect
// any definition drift, exactly the property bag connection records rely
// on (the literal upstream hash values are not reproduced).
package msgdef

import (
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
)

// Definitions of the message types used by the evaluation workloads.
// Nested complex fields reference other entries in this table.
var definitions = map[string]string{
	"std_msgs/Header": `uint32 seq
time stamp
string frame_id`,

	"std_msgs/ColorRGBA": `float32 r
float32 g
float32 b
float32 a`,

	"geometry_msgs/Vector3": `float64 x
float64 y
float64 z`,

	"geometry_msgs/Point": `float64 x
float64 y
float64 z`,

	"geometry_msgs/Quaternion": `float64 x
float64 y
float64 z
float64 w`,

	"geometry_msgs/Pose": `geometry_msgs/Point position
geometry_msgs/Quaternion orientation`,

	"geometry_msgs/Transform": `geometry_msgs/Vector3 translation
geometry_msgs/Quaternion rotation`,

	"geometry_msgs/TransformStamped": `std_msgs/Header header
string child_frame_id
geometry_msgs/Transform transform`,

	"tf2_msgs/TFMessage": `geometry_msgs/TransformStamped[] transforms`,

	"sensor_msgs/Image": `std_msgs/Header header
uint32 height
uint32 width
string encoding
uint8 is_bigendian
uint32 step
uint8[] data`,

	"sensor_msgs/RegionOfInterest": `uint32 x_offset
uint32 y_offset
uint32 height
uint32 width
bool do_rectify`,

	"sensor_msgs/CameraInfo": `std_msgs/Header header
uint32 height
uint32 width
string distortion_model
float64[] D
float64[9] K
float64[9] R
float64[12] P
uint32 binning_x
uint32 binning_y
sensor_msgs/RegionOfInterest roi`,

	"sensor_msgs/Imu": `std_msgs/Header header
geometry_msgs/Quaternion orientation
float64[9] orientation_covariance
geometry_msgs/Vector3 angular_velocity
float64[9] angular_velocity_covariance
geometry_msgs/Vector3 linear_acceleration
float64[9] linear_acceleration_covariance`,

	"visualization_msgs/Marker": `uint8 ARROW=0
uint8 CUBE=1
uint8 SPHERE=2
uint8 CYLINDER=3
std_msgs/Header header
string ns
int32 id
int32 type
int32 action
geometry_msgs/Pose pose
geometry_msgs/Vector3 scale
std_msgs/ColorRGBA color
duration lifetime
bool frame_locked
geometry_msgs/Point[] points
std_msgs/ColorRGBA[] colors
string text
string mesh_resource
bool mesh_use_embedded_materials`,

	"visualization_msgs/MarkerArray": `visualization_msgs/Marker[] markers`,

	"sensor_msgs/LaserScan": `std_msgs/Header header
float32 angle_min
float32 angle_max
float32 angle_increment
float32 time_increment
float32 scan_time
float32 range_min
float32 range_max
float32[] ranges
float32[] intensities`,

	"sensor_msgs/NavSatStatus": `int8 STATUS_NO_FIX=-1
int8 STATUS_FIX=0
int8 STATUS_SBAS_FIX=1
int8 STATUS_GBAS_FIX=2
int8 status
uint16 service`,

	"sensor_msgs/NavSatFix": `std_msgs/Header header
sensor_msgs/NavSatStatus status
float64 latitude
float64 longitude
float64 altitude
float64[9] position_covariance
uint8 position_covariance_type`,

	"sensor_msgs/FluidPressure": `std_msgs/Header header
float64 fluid_pressure
float64 variance`,

	"sensor_msgs/JointState": `std_msgs/Header header
string[] name
float64[] position
float64[] velocity
float64[] effort`,

	"sensor_msgs/CompressedImage": `std_msgs/Header header
string format
uint8[] data`,

	"sensor_msgs/PointField": `uint8 INT8=1
uint8 FLOAT32=7
uint8 FLOAT64=8
string name
uint32 offset
uint8 datatype
uint32 count`,

	"sensor_msgs/PointCloud2": `std_msgs/Header header
uint32 height
uint32 width
sensor_msgs/PointField[] fields
bool is_bigendian
uint32 point_step
uint32 row_step
uint8[] data
bool is_dense`,

	"geometry_msgs/PoseStamped": `std_msgs/Header header
geometry_msgs/Pose pose`,

	"geometry_msgs/PoseWithCovariance": `geometry_msgs/Pose pose
float64[36] covariance`,

	"geometry_msgs/Twist": `geometry_msgs/Vector3 linear
geometry_msgs/Vector3 angular`,

	"geometry_msgs/TwistWithCovariance": `geometry_msgs/Twist twist
float64[36] covariance`,

	"nav_msgs/Odometry": `std_msgs/Header header
string child_frame_id
geometry_msgs/PoseWithCovariance pose
geometry_msgs/TwistWithCovariance twist`,

	"nav_msgs/Path": `std_msgs/Header header
geometry_msgs/PoseStamped[] poses`,
}

var builtinTypes = map[string]bool{
	"bool": true, "int8": true, "uint8": true, "byte": true, "char": true,
	"int16": true, "uint16": true, "int32": true, "uint32": true,
	"int64": true, "uint64": true, "float32": true, "float64": true,
	"string": true, "time": true, "duration": true,
}

var (
	md5Mu    sync.Mutex
	md5Cache = map[string]string{}
)

// baseType strips array suffixes: "float64[9]" → "float64".
func baseType(t string) string {
	if i := strings.IndexByte(t, '['); i >= 0 {
		return t[:i]
	}
	return t
}

// arraySuffix returns the array part of a type, if any.
func arraySuffix(t string) string {
	if i := strings.IndexByte(t, '['); i >= 0 {
		return t[i:]
	}
	return ""
}

// MD5 computes the checksum of a type per the ROS rules: the md5 text is
// the constant lines followed by field lines with nested complex types
// replaced by their MD5 digests.
func MD5(typeName string) (string, error) {
	md5Mu.Lock()
	defer md5Mu.Unlock()
	return md5Locked(typeName, map[string]bool{})
}

func md5Locked(typeName string, visiting map[string]bool) (string, error) {
	if sum, ok := md5Cache[typeName]; ok {
		return sum, nil
	}
	if visiting[typeName] {
		return "", fmt.Errorf("msgdef: definition cycle through %q", typeName)
	}
	visiting[typeName] = true
	defer delete(visiting, typeName)

	def, ok := definitions[typeName]
	if !ok {
		return "", fmt.Errorf("msgdef: unknown type %q", typeName)
	}
	var consts, fields []string
	for _, line := range strings.Split(def, "\n") {
		line = strings.TrimSpace(line)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) < 2 {
			return "", fmt.Errorf("msgdef: %s: malformed line %q", typeName, line)
		}
		ftype, rest := parts[0], strings.Join(parts[1:], " ")
		if strings.Contains(rest, "=") {
			consts = append(consts, ftype+" "+rest)
			continue
		}
		base := baseType(ftype)
		if builtinTypes[base] {
			fields = append(fields, ftype+" "+rest)
			continue
		}
		sub, err := md5Locked(base, visiting)
		if err != nil {
			return "", fmt.Errorf("msgdef: %s: %w", typeName, err)
		}
		fields = append(fields, sub+arraySuffix(ftype)+" "+rest)
	}
	text := strings.Join(append(consts, fields...), "\n")
	sum := md5.Sum([]byte(text))
	hexSum := hex.EncodeToString(sum[:])
	md5Cache[typeName] = hexSum
	return hexSum, nil
}

// FullText returns the definition with all nested definitions appended,
// separated by the "=" ruler lines rosbag stores in connection records.
func FullText(typeName string) (string, error) {
	if _, ok := definitions[typeName]; !ok {
		return "", fmt.Errorf("msgdef: unknown type %q", typeName)
	}
	seen := map[string]bool{typeName: true}
	order := []string{typeName}
	for i := 0; i < len(order); i++ {
		def := definitions[order[i]]
		for _, line := range strings.Split(def, "\n") {
			parts := strings.Fields(strings.TrimSpace(line))
			if len(parts) < 2 || strings.Contains(parts[1], "=") {
				continue
			}
			base := baseType(parts[0])
			if builtinTypes[base] || seen[base] {
				continue
			}
			if _, ok := definitions[base]; ok {
				seen[base] = true
				order = append(order, base)
			}
		}
	}
	var sb strings.Builder
	for i, t := range order {
		if i > 0 {
			sb.WriteString("\n" + strings.Repeat("=", 80) + "\n")
			sb.WriteString("MSG: " + t + "\n")
		}
		sb.WriteString(definitions[t])
	}
	return sb.String(), nil
}
