package plfsim

import (
	"testing"

	"repro/internal/pathsim"
	"repro/internal/simio"
	"repro/internal/workload"
)

// Fig 3 shape: PLFS ≈2× native on bag writes and ≈2× on topic reads.
func TestFig3Shape(t *testing.T) {
	bag, err := workload.HandheldSLAMBag(3_900_000_000)
	if err != nil {
		t.Fatal(err)
	}
	ext4Write := pathsim.BaselineWrite(simio.NewLocalEnv(simio.SingleNodeSSD()), bag)
	plfsWrite := SimWrite(simio.NewLocalEnv(simio.SingleNodeSSD()), bag)
	r := float64(plfsWrite) / float64(ext4Write)
	if r < 1.5 || r > 3.5 {
		t.Errorf("PLFS write ratio = %.2fx (plfs %v, ext4 %v), paper reports ≈2x", r, plfsWrite, ext4Write)
	}

	read29, err := workload.HandheldSLAMBag(2_900_000_000)
	if err != nil {
		t.Fatal(err)
	}
	ti := read29.TopicIndex(workload.TopicRGBImage)
	topic := read29.Topics[ti]
	env := simio.NewLocalEnv(simio.SingleNodeSSD())
	ext4Read := pathsim.BaselineOpen(env, read29) + pathsim.BaselineQueryTopics(env, read29, []string{workload.TopicRGBImage})
	plfsRead := SimReadTopic(simio.NewLocalEnv(simio.SingleNodeSSD()), read29, topic.Bytes, topic.Count)
	rr := float64(plfsRead) / float64(ext4Read)
	if rr < 1.2 || rr > 4 {
		t.Errorf("PLFS read ratio = %.2fx (plfs %v, ext4 %v), paper reports ≈2x", rr, plfsRead, ext4Read)
	}
}
