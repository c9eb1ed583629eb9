package msgdef

import (
	"strings"
	"testing"
)

func TestDefinitionKnownTypes(t *testing.T) {
	for name, d := range definitions {
		if strings.TrimSpace(d) == "" {
			t.Errorf("definition of %s is empty", name)
		}
	}
}

func TestMD5StableAndDistinct(t *testing.T) {
	sums := map[string]string{}
	for name := range definitions {
		sum, err := MD5(name)
		if err != nil {
			t.Fatalf("MD5(%s): %v", name, err)
		}
		if len(sum) != 32 {
			t.Errorf("MD5(%s) = %q, want 32 hex chars", name, sum)
		}
		again, err := MD5(name)
		if err != nil || again != sum {
			t.Errorf("MD5(%s) not stable: %q vs %q (%v)", name, sum, again, err)
		}
		sums[name] = sum
	}
	// Vector3 and Point share a wire layout, hence the same md5 text.
	delete(sums, "geometry_msgs/Point")
	seen := map[string]string{}
	for name, sum := range sums {
		if other, dup := seen[sum]; dup {
			t.Errorf("MD5 collision between %s and %s", name, other)
		}
		seen[sum] = name
	}
}

func TestMD5VectorPointAlias(t *testing.T) {
	v, _ := MD5("geometry_msgs/Vector3")
	p, _ := MD5("geometry_msgs/Point")
	if v != p {
		t.Errorf("Vector3 (%s) and Point (%s) should hash identically", v, p)
	}
}

func TestMD5Unknown(t *testing.T) {
	if _, err := MD5("bogus/Type"); err == nil {
		t.Error("MD5 on unknown type should error")
	}
}

func TestMD5ChangesWithNestedDefinition(t *testing.T) {
	// Imu embeds Quaternion: their md5s must differ and Imu's must depend
	// on Quaternion's. We verify dependence structurally: the Imu md5 text
	// substitutes the Quaternion digest, so the two cannot be equal.
	imu, err := MD5("sensor_msgs/Imu")
	if err != nil {
		t.Fatal(err)
	}
	q, err := MD5("geometry_msgs/Quaternion")
	if err != nil {
		t.Fatal(err)
	}
	if imu == q {
		t.Error("nested type digest equals parent digest")
	}
}

func TestFullTextIncludesNestedTypes(t *testing.T) {
	text, err := FullText("sensor_msgs/Imu")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"MSG: std_msgs/Header", "MSG: geometry_msgs/Quaternion", "MSG: geometry_msgs/Vector3", "orientation_covariance"} {
		if !strings.Contains(text, want) {
			t.Errorf("FullText(Imu) missing %q", want)
		}
	}
	if _, err := FullText("bogus/Type"); err == nil {
		t.Error("FullText on unknown type should error")
	}
}

func TestFullTextTopLevelFirst(t *testing.T) {
	text, err := FullText("visualization_msgs/MarkerArray")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(text, "visualization_msgs/Marker[] markers") {
		t.Errorf("FullText should start with the top-level definition, got %q", text[:40])
	}
	if !strings.Contains(text, "MSG: visualization_msgs/Marker") {
		t.Error("FullText(MarkerArray) missing nested Marker definition")
	}
}

func TestConstantsKeptInMD5Text(t *testing.T) {
	// Marker has uint8 constants; removing them must change the digest.
	// We can't mutate the table, but we can at least assert the definition
	// still carries them so the md5 text does.
	d := definitions["visualization_msgs/Marker"]
	if !strings.Contains(d, "CUBE=1") {
		t.Error("Marker definition lost its constants")
	}
}
