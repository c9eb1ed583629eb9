package dbsim

import (
	"fmt"
	"sort"

	"repro/internal/msgs"
)

// TSStore is the InfluxDB-like engine: a time-series store that accepts
// only scalar fields. A ROS TF message carries nested structures
// (translation vector, rotation quaternion), so every message must be
// flattened into one point per scalar field — seven series writes per
// transform — which is why the time-series system is three orders of
// magnitude slower in Fig 2 and "inadequate to process ROS data, which
// could be multiple dimensional".
type TSStore struct {
	clockEngine
	series map[string]map[int64]float64 // series name → time(ns) → value
	points int
}

// NewTSStore creates the time-series engine.
func NewTSStore() *TSStore {
	return &TSStore{series: map[string]map[int64]float64{}}
}

// Name implements Engine.
func (e *TSStore) Name() string { return "influxdb-like-ts" }

// flatten decomposes one transform into scalar (series, value) pairs.
func flatten(ts *msgs.TransformStamped) map[string]float64 {
	tr := ts.Transform
	return map[string]float64{
		"tf.translation.x": tr.Translation.X,
		"tf.translation.y": tr.Translation.Y,
		"tf.translation.z": tr.Translation.Z,
		"tf.rotation.x":    tr.Rotation.X,
		"tf.rotation.y":    tr.Rotation.Y,
		"tf.rotation.z":    tr.Rotation.Z,
		"tf.rotation.w":    tr.Rotation.W,
	}
}

// Insert implements Engine.
func (e *TSStore) Insert(seq uint32, m *msgs.TFMessage) error {
	if m == nil {
		return fmt.Errorf("dbsim: nil message")
	}
	e.clock.Advance(serializeCost)
	for i := range m.Transforms {
		ts := &m.Transforms[i]
		when := ts.Header.Stamp.Nanos()
		for name, v := range flatten(ts) {
			s, ok := e.series[name]
			if !ok {
				s = map[int64]float64{}
				e.series[name] = s
			}
			s[when] = v
			e.points++
			e.clock.Advance(pointInsertCost)
		}
	}
	e.count++
	return nil
}

// Points returns the total scalar points written.
func (e *TSStore) Points() int { return e.points }

// seriesNames returns the sorted series names.
func (e *TSStore) seriesNames() []string {
	out := make([]string, 0, len(e.series))
	for name := range e.series {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// rangeValues reads one series' values in [startNs, endNs], time-ordered.
func (e *TSStore) rangeValues(series string, startNs, endNs int64) ([]float64, error) {
	s, ok := e.series[series]
	if !ok {
		return nil, fmt.Errorf("dbsim: unknown series %q", series)
	}
	var times []int64
	for when := range s {
		if when >= startNs && when <= endNs {
			times = append(times, when)
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	out := make([]float64, len(times))
	for i, when := range times {
		out[i] = s[when]
	}
	return out, nil
}
