package bench

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/workload"
)

func init() {
	register("table2", runTable2)
	register("table3", runTable3)
	register("table4", runTable4)
}

// runTable2 regenerates the 2.9 GB Handheld SLAM bag composition and
// compares it against the paper's Table II row by row.
func runTable2(reg *obs.Registry) (*Table, error) {
	t := &Table{
		ID:     "table2",
		Title:  "Data organization of a 2.9 GB bag (synthetic vs paper)",
		Header: []string{"id", "topic", "msgs (ours)", "msgs (paper)", "bytes (ours)", "bytes (paper)"},
		Notes: []string{
			"the synthetic workload generator must land within ~15% of Table II's counts",
		},
	}
	bag, err := workload.HandheldSLAMBag(2_900_000_000)
	if err != nil {
		return nil, err
	}
	paper := []struct {
		id    string
		topic string
		msgs  int
		size  string
	}{
		{"A", workload.TopicDepthImage, 1429, "1.64 GB"},
		{"B", workload.TopicRGBImage, 1431, "1.23 GB"},
		{"C", workload.TopicRGBCameraInfo, 1432, "594 KB"},
		{"D", workload.TopicDepthCameraInfo, 1430, "594 KB"},
		{"E", workload.TopicMarkerArray, 14487, "8.4 MB"},
		{"F", workload.TopicIMU, 24367, "8.4 MB"},
		{"G", workload.TopicTF, 16411, "3.6 MB"},
	}
	for _, row := range paper {
		i := bag.TopicIndex(row.topic)
		if i < 0 {
			return nil, fmt.Errorf("table2: topic %s missing", row.topic)
		}
		tp := bag.Topics[i]
		t.Rows = append(t.Rows, []string{
			row.id, row.topic,
			fmt.Sprintf("%d", tp.Count), fmt.Sprintf("%d", row.msgs),
			fmtBytes(tp.Bytes), row.size,
		})
	}
	return t, nil
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1_000_000_000:
		return fmt.Sprintf("%.2f GB", float64(b)/1e9)
	case b >= 1_000_000:
		return fmt.Sprintf("%.1f MB", float64(b)/1e6)
	default:
		return fmt.Sprintf("%.0f KB", float64(b)/1e3)
	}
}

// runTable3 lists the four applications' required topic sets.
func runTable3(reg *obs.Registry) (*Table, error) {
	t := &Table{
		ID:     "table3",
		Title:  "Required topics in each real-world application",
		Header: []string{"application", "abbrev", "required topics"},
	}
	for _, app := range workload.Apps() {
		t.Rows = append(t.Rows, []string{app.Name, app.Abbrev, strings.Join(app.Topics, ", ")})
	}
	return t, nil
}

// runTable4 reproduces the qualitative middleware comparison, with this
// repository's implementations cited where they exist.
func runTable4(reg *obs.Registry) (*Table, error) {
	t := &Table{
		ID:     "table4",
		Title:  "I/O middleware system comparison",
		Header: []string{"system", "interposition", "usage", "app modification", "in this repo"},
		Notes: []string{
			"paper Table IV; the BORA row is backed by a working implementation here, the PLFS row by the cost model Fig 3 runs",
		},
	}
	t.Rows = [][]string{
		{"HDF5", "library", "scientific data", "no", "-"},
		{"ADIOS", "library", "checkpoint-restart", "no", "-"},
		{"PLFS", "FUSE or library", "checkpoint-restart", "yes", "internal/plfsim"},
		{"ROMIO", "library", "MPI-IO", "no", "-"},
		{"BORA", "FUSE or library", "bag enhancement", "yes", "internal/core + internal/vfs"},
	}
	return t, nil
}
