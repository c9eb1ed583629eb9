package spec

import (
	"strings"
	"testing"

	"repro/internal/bagio"
)

// TestValidate pins every check of the one selection type: what each
// malformed selection is refused for, and that the edge cases around
// them pass.
func TestValidate(t *testing.T) {
	at := func(sec uint32) bagio.Time { return bagio.Time{Sec: sec} }
	for _, tc := range []struct {
		name string
		q    Query
		want string // "" = valid
	}{
		{"zero value", Query{}, ""},
		{"point window", Query{Start: at(5), End: at(5)}, ""},
		{"start with no end bound", Query{Start: at(5)}, ""},
		{"stride 0, 1 and 10", Query{Stride: 10}, ""},
		{"time order, following", Query{Order: OrderTime, Follow: true}, ""},
		{"inverted window", Query{Start: at(9), End: at(1)}, "before start time"},
		{"negative stride", Query{Stride: -1}, "negative stride"},
		{"unknown order", Query{Order: 2}, "unknown order"},
		{"negative order", Query{Order: -1}, "unknown order"},
		{"empty topic", Query{Topics: []string{"/imu", ""}}, "empty topic"},
		{"newline in a topic", Query{Topics: []string{"/a\nb"}}, "newline"},
	} {
		err := tc.q.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: refused: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}
