package pathsim

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/layout"
	"repro/internal/simio"
	"repro/internal/workload"
)

const window = time.Second

func hsBag(t testing.TB, size int64) *layout.Bag {
	t.Helper()
	bag, err := workload.HandheldSLAMBag(size)
	if err != nil {
		t.Fatal(err)
	}
	return bag
}

func ssd() simio.Env { return simio.NewLocalEnv(simio.SingleNodeSSD()) }

func TestBaselineOpenScalesWithBagSize(t *testing.T) {
	small := BaselineOpen(ssd(), hsBag(t, 2_900_000_000))
	large := BaselineOpen(ssd(), hsBag(t, 21_000_000_000))
	if large < 5*small {
		t.Errorf("open(21GB)=%v open(2.9GB)=%v: open cost should scale with chunk count", large, small)
	}
	// The paper: opening a 21 GB bag took more than seven seconds on SSD.
	if large < 4*time.Second || large > 15*time.Second {
		t.Errorf("open(21GB) = %v, calibration target ≈7 s", large)
	}
}

func TestBoraOpenNearConstant(t *testing.T) {
	small := BoraOpen(ssd(), hsBag(t, 2_900_000_000))
	large := BoraOpen(ssd(), hsBag(t, 21_000_000_000))
	if large > 2*small {
		t.Errorf("BORA open grew with bag size: %v vs %v", large, small)
	}
	if large > 10*time.Millisecond {
		t.Errorf("BORA open = %v, should be sub-10ms (loads only the tag table)", large)
	}
}

func TestOpenImprovementShape(t *testing.T) {
	bag := hsBag(t, 21_000_000_000)
	base := BaselineOpen(ssd(), bag)
	bora := BoraOpen(ssd(), bag)
	ratio := float64(base) / float64(bora)
	if ratio < 100 {
		t.Errorf("open improvement = %.0fx; the paper reports orders of magnitude", ratio)
	}
}

// Fig 10 shape: ≈2x on large topics, much larger on small structured
// topics (paper: 5x on camera_info at 2.9 GB, counting open).
func TestQueryByTopicShape(t *testing.T) {
	bag := hsBag(t, 2_900_000_000)

	run := func(topics []string) (base, bora time.Duration) {
		be := ssd()
		BaselineOpen(be, bag)
		BaselineQueryTopics(be, bag, topics)
		base = be.Clock().Elapsed()
		bo := ssd()
		BoraOpen(bo, bag)
		BoraQueryTopics(bo, bag, topics)
		bora = bo.Clock().Elapsed()
		return base, bora
	}

	baseA, boraA := run([]string{workload.TopicDepthImage})
	rA := float64(baseA) / float64(boraA)
	if rA < 1.3 || rA > 6 {
		t.Errorf("topic A improvement = %.2fx (base %v, bora %v); paper shape ≈2x", rA, baseA, boraA)
	}

	baseC, boraC := run([]string{workload.TopicRGBCameraInfo})
	rC := float64(baseC) / float64(boraC)
	if rC < 3 {
		t.Errorf("topic C improvement = %.2fx (base %v, bora %v); paper reports ≈5x", rC, baseC, boraC)
	}
	if rC <= rA {
		t.Errorf("small structured topic (%.1fx) should gain more than large topic (%.1fx)", rC, rA)
	}
}

// Figs 11/12 shape: every application improves, small bag gains ≥ large
// bag gains on average.
func TestApplicationQueriesImprove(t *testing.T) {
	for _, size := range []int64{2_900_000_000, 21_000_000_000} {
		bag := hsBag(t, size)
		for _, app := range workload.Apps() {
			be := ssd()
			BaselineOpen(be, bag)
			BaselineQueryTopics(be, bag, app.Topics)
			bo := ssd()
			BoraOpen(bo, bag)
			BoraQueryTopics(bo, bag, app.Topics)
			if bo.Clock().Elapsed() >= be.Clock().Elapsed() {
				t.Errorf("%s at %d bytes: BORA (%v) not faster than baseline (%v)",
					app.Abbrev, size, bo.Clock().Elapsed(), be.Clock().Elapsed())
			}
		}
	}
}

// Fig 13 shape: time-bounded queries on small topics gain up to ~11x;
// full-coverage queries still gain ≈2x.
func TestQueryTimeShape(t *testing.T) {
	bag := hsBag(t, 21_000_000_000)
	topics := []string{workload.TopicRGBCameraInfo}

	narrowBase, narrowBora := timeQueryPair(bag, topics, 0, 5*int64(time.Second))
	rNarrow := float64(narrowBase) / float64(narrowBora)
	fullBase, fullBora := timeQueryPair(bag, topics, 0, bag.DurationNs)
	rFull := float64(fullBase) / float64(fullBora)

	if rNarrow < 4 {
		t.Errorf("narrow camera_info time query improvement = %.1fx, paper reports up to 11x", rNarrow)
	}
	if rFull < 1.5 {
		t.Errorf("full-coverage improvement = %.1fx, paper reports ≈2x", rFull)
	}
	if rNarrow <= rFull {
		t.Errorf("narrow window (%.1fx) should gain more than full coverage (%.1fx)", rNarrow, rFull)
	}
}

func timeQueryPair(bag *layout.Bag, topics []string, startNs, endNs int64) (base, bora time.Duration) {
	be := ssd()
	BaselineOpen(be, bag)
	BaselineQueryTime(be, bag, topics, startNs, endNs)
	bo := ssd()
	BoraOpen(bo, bag)
	BoraQueryTime(bo, bag, topics, startNs, endNs, window)
	return be.Clock().Elapsed(), bo.Clock().Elapsed()
}

// Fig 9 shape: BORA's initial capture costs extra (bounded), the
// overhead shrinks with bag size, and BORA-to-BORA copies are ≈native.
func TestDuplicationOverheadShape(t *testing.T) {
	small := hsBag(t, 700_000_000)
	large := hsBag(t, 3_900_000_000)

	overhead := func(bag *layout.Bag) float64 {
		plain := BaselineWrite(ssd(), bag) + BaselineRead(ssd(), bag)
		borae := ssd()
		borat := BoraDuplicate(borae, bag)
		return float64(borat)/float64(plain) - 1
	}
	ovSmall, ovLarge := overhead(small), overhead(large)
	if ovSmall <= 0 {
		t.Errorf("BORA capture should cost extra on small bags, got %.2f", ovSmall)
	}
	if ovSmall > 1.0 {
		t.Errorf("capture overhead %.2f exceeds the paper's worst case (≈50%%)", ovSmall)
	}
	if ovLarge >= ovSmall {
		t.Errorf("overhead should shrink with size: small %.2f, large %.2f", ovSmall, ovLarge)
	}

	// BORA-to-BORA ≈ native copy speed (within 25%).
	plain := BaselineWrite(ssd(), large) + BaselineRead(ssd(), large)
	b2b := BoraCopyContainer(ssd(), large)
	r := float64(b2b) / float64(plain)
	if r > 1.25 {
		t.Errorf("BORA-to-BORA copy = %.2f of native, want ≈1", r)
	}
}

// Fig 15 shape: on PVFS the query gains persist (~2x average) and
// camera_info gains are much larger (paper: 30x including open).
func TestPVFSShape(t *testing.T) {
	bag := hsBag(t, 21_000_000_000)
	run := func(topics []string) float64 {
		be := cluster.NewPVFS()
		BaselineOpen(be, bag)
		BaselineQueryTopics(be, bag, topics)
		bo := cluster.NewPVFS()
		BoraOpen(bo, bag)
		BoraQueryTopics(bo, bag, topics)
		return float64(be.Clock().Elapsed()) / float64(bo.Clock().Elapsed())
	}
	if r := run([]string{workload.TopicRGBImage}); r < 1.2 {
		t.Errorf("PVFS large-topic improvement = %.2fx", r)
	}
	if r := run([]string{workload.TopicRGBCameraInfo}); r < 10 {
		t.Errorf("PVFS camera_info improvement = %.2fx, paper reports ≈30x", r)
	}
}

// Fig 17 shape: under swarm concurrency on Lustre, open gains reach
// thousands of x and overall robot-SLAM extraction gains exceed ~5x.
func TestLustreSwarmShape(t *testing.T) {
	bag := hsBag(t, 42_000_000_000)
	rs := []string{workload.TopicDepthImage, workload.TopicRGBImage, workload.TopicIMU}

	mk := func(clients int) (*cluster.Lustre, *cluster.Lustre) {
		a, b := cluster.NewLustre(), cluster.NewLustre()
		a.Clients, b.Clients = clients, clients
		return a, b
	}
	be, bo := mk(100)
	openBase := BaselineOpen(be, bag)
	openBora := BoraOpen(bo, bag)
	if r := float64(openBase) / float64(openBora); r < 500 {
		t.Errorf("swarm open improvement = %.0fx, paper reports up to 3,113x", r)
	}
	queryBase := BaselineQueryTopics(be, bag, rs)
	queryBora := BoraQueryTopics(bo, bag, rs)
	if r := float64(queryBase) / float64(queryBora); r < 2 {
		t.Errorf("swarm query improvement = %.1fx, paper reports >10x overall", r)
	}
}

// Scalability: contention hurts the baseline more than BORA.
func TestLustreContentionShape(t *testing.T) {
	bag := hsBag(t, 21_000_000_000)
	topics := []string{workload.TopicRGBImage}
	ratio := func(clients int) float64 {
		be, bo := cluster.NewLustre(), cluster.NewLustre()
		be.Clients, bo.Clients = clients, clients
		BaselineOpen(be, bag)
		BaselineQueryTopics(be, bag, topics)
		BoraOpen(bo, bag)
		BoraQueryTopics(bo, bag, topics)
		return float64(be.Clock().Elapsed()) / float64(bo.Clock().Elapsed())
	}
	r10, r100 := ratio(10), ratio(100)
	if r100 < r10 {
		t.Errorf("improvement should grow with swarm size: 10→%.1fx, 100→%.1fx", r10, r100)
	}
}

func TestQueryTimeDegenerate(t *testing.T) {
	bag := hsBag(t, 1_000_000_000)
	env := ssd()
	if d := BoraQueryTime(env, bag, nil, 100, 50, window); d != 0 {
		t.Errorf("inverted range cost %v", d)
	}
	if d := BaselineQueryTime(env, bag, nil, bag.DurationNs*2, bag.DurationNs*3); d > time.Millisecond {
		t.Errorf("out-of-range baseline query cost %v", d)
	}
	// Unknown topics read nothing but still traverse index records.
	d := BaselineQueryTopics(env, bag, []string{"/nope"})
	if d < 0 {
		t.Errorf("negative duration %v", d)
	}
	if d2 := BoraQueryTopics(env, bag, []string{"/nope"}); d2 != 0 {
		t.Errorf("BORA query of unknown topic cost %v", d2)
	}
}
