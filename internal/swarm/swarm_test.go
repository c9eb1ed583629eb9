package swarm

import (
	"testing"
	"time"

	"repro/internal/workload"
)

func TestSimValidation(t *testing.T) {
	if _, err := Sim(SimConfig{Robots: 0, BagBytes: workload.GB}); err == nil {
		t.Error("zero robots accepted")
	}
}

// Fig 17 shape: BORA wins open by orders of magnitude and query overall;
// gains grow with swarm size and bag size.
func TestSimFig17Shape(t *testing.T) {
	sizes := []int64{21 * workload.GB, 42 * workload.GB}
	swarms := []int{10, 50, 100}
	var prevOpen float64
	for _, size := range sizes {
		for _, robots := range swarms {
			res, err := Sim(SimConfig{Robots: robots, BagBytes: size})
			if err != nil {
				t.Fatal(err)
			}
			if res.BoraOpen >= res.BaselineOpen {
				t.Errorf("%d robots × %d: BORA open not faster", robots, size)
			}
			if res.BoraQuery >= res.BaselineQuery {
				t.Errorf("%d robots × %d: BORA query not faster", robots, size)
			}
			if robots == 100 && size == 42*workload.GB {
				if r := res.OpenImprovement(); r < 500 {
					t.Errorf("100×42GB open improvement = %.0fx, paper reports 3,113x", r)
				}
				if r := res.QueryImprovement(); r < 3 {
					t.Errorf("100×42GB query improvement = %.1fx, paper reports >10x overall", r)
				}
			}
			_ = prevOpen
			prevOpen = res.OpenImprovement()
		}
	}
}

// Fig 18 shape: time-bounded swarm queries still gain (paper: up to 4x).
func TestSimFig18Shape(t *testing.T) {
	res, err := Sim(SimConfig{
		Robots:      50,
		BagBytes:    21 * workload.GB,
		TimeStartNs: 0,
		TimeEndNs:   30 * int64(time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := res.QueryImprovement(); r < 2 {
		t.Errorf("swarm time-query improvement = %.1fx, paper reports up to 4x", r)
	}
}

func TestSimImprovementGrowsWithSwarm(t *testing.T) {
	small, err := Sim(SimConfig{Robots: 10, BagBytes: 21 * workload.GB})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Sim(SimConfig{Robots: 100, BagBytes: 21 * workload.GB})
	if err != nil {
		t.Fatal(err)
	}
	if large.QueryImprovement() < small.QueryImprovement() {
		t.Errorf("query improvement shrank with swarm size: %.1fx → %.1fx",
			small.QueryImprovement(), large.QueryImprovement())
	}
}

func TestRealSwarmConcurrentExtraction(t *testing.T) {
	res, err := Real(RealConfig{Robots: 4, Seconds: 1, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Robots != 4 {
		t.Errorf("Robots = %d", res.Robots)
	}
	// Each robot's 1 s bag holds 30 depth + 30 RGB + 508 IMU messages.
	want := 4 * (30 + 30 + 508)
	if res.MessagesRead != want {
		t.Errorf("MessagesRead = %d, want %d", res.MessagesRead, want)
	}
	if res.BytesRead <= 0 {
		t.Error("no bytes read")
	}
	if res.OpenTime <= 0 || res.QueryTime <= 0 {
		t.Error("timings not recorded")
	}
}

func TestRealValidation(t *testing.T) {
	if _, err := Real(RealConfig{Robots: 0, Dir: t.TempDir()}); err == nil {
		t.Error("zero robots accepted")
	}
}

func TestSimBag(t *testing.T) {
	bag, err := simBag(2 * workload.GB)
	if err != nil {
		t.Fatal(err)
	}
	if bag.MessageCount() == 0 {
		t.Error("empty sim bag")
	}
}
