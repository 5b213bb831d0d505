package main

import (
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

// snap builds a snapshot whose histogram map holds the given metric p95s
// (count fixed at 100 so the stats read as populated).
func snap(p95s map[string]float64) snapshot {
	h := make(map[string]telemetry.HistogramStats, len(p95s))
	for name, p95 := range p95s {
		h[name] = telemetry.HistogramStats{Count: 100, P50: p95 / 2, P95: p95}
	}
	return snapshot{Kind: "bench", Telemetry: telemetry.Snapshot{Histograms: h}}
}

// The gate's verdict over one snapshot pair: regressions beyond tolerance
// fail, improvements and within-tolerance drift pass, and a gated metric
// that the old snapshot measured but the new one dropped fails — silently
// losing a workload is not a pass. A gate name absent from both snapshots
// (a gate registered ahead of its first bench run) passes.
func TestDiffGateVerdicts(t *testing.T) {
	gated := []string{"sti.evaluate.seconds", "bench.sti_evaluate_dense64.seconds"}
	cases := []struct {
		name     string
		old, new map[string]float64
		fail     bool
	}{
		{
			name: "within tolerance passes",
			old:  map[string]float64{"sti.evaluate.seconds": 1.00, "bench.sti_evaluate_dense64.seconds": 2.00},
			new:  map[string]float64{"sti.evaluate.seconds": 1.15, "bench.sti_evaluate_dense64.seconds": 2.30},
			fail: false,
		},
		{
			name: "improvement passes",
			old:  map[string]float64{"sti.evaluate.seconds": 1.00, "bench.sti_evaluate_dense64.seconds": 2.00},
			new:  map[string]float64{"sti.evaluate.seconds": 0.40, "bench.sti_evaluate_dense64.seconds": 0.90},
			fail: false,
		},
		{
			name: "gated p95 regression fails",
			old:  map[string]float64{"sti.evaluate.seconds": 1.00, "bench.sti_evaluate_dense64.seconds": 2.00},
			new:  map[string]float64{"sti.evaluate.seconds": 1.50, "bench.sti_evaluate_dense64.seconds": 2.00},
			fail: true,
		},
		{
			name: "ungated regression passes",
			old:  map[string]float64{"sti.evaluate.seconds": 1.00, "other.path.seconds": 0.10},
			new:  map[string]float64{"sti.evaluate.seconds": 1.00, "other.path.seconds": 9.00},
			fail: false,
		},
		{
			name: "previously gated metric missing from new snapshot fails",
			old:  map[string]float64{"sti.evaluate.seconds": 1.00, "bench.sti_evaluate_dense64.seconds": 2.00},
			new:  map[string]float64{"sti.evaluate.seconds": 1.00},
			fail: true,
		},
		{
			name: "gate absent from both snapshots passes",
			old:  map[string]float64{"sti.evaluate.seconds": 1.00},
			new:  map[string]float64{"sti.evaluate.seconds": 1.00},
			fail: false,
		},
		{
			name: "new metric starts gating next snapshot",
			old:  map[string]float64{"sti.evaluate.seconds": 1.00},
			new:  map[string]float64{"sti.evaluate.seconds": 1.00, "bench.sti_evaluate_dense64.seconds": 99.0},
			fail: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := diff(snap(tc.old), snap(tc.new), gated, nil, 0.20); got != tc.fail {
				t.Errorf("diff failed=%v, want %v", got, tc.fail)
			}
		})
	}
}

// An empty (count zero) gated histogram in the new snapshot is treated the
// same as a missing one: the measurement is gone either way.
func TestDiffGateEmptyCountsAsMissing(t *testing.T) {
	oldSnap := snap(map[string]float64{"sti.evaluate.seconds": 1.00})
	newSnap := snap(nil)
	newSnap.Telemetry.Histograms["sti.evaluate.seconds"] = telemetry.HistogramStats{Count: 0}
	if !diff(oldSnap, newSnap, []string{"sti.evaluate.seconds"}, nil, 0.20) {
		t.Error("empty gated histogram in new snapshot should fail the gate")
	}
}

// gaugeSnap builds a snapshot carrying only throughput gauges.
func gaugeSnap(gauges map[string]float64) snapshot {
	g := make(map[string]float64, len(gauges))
	for name, v := range gauges {
		g[name] = v
	}
	return snapshot{Kind: "bench", Telemetry: telemetry.Snapshot{Gauges: g}}
}

// Throughput gauges gate downwards: a drop beyond tolerance fails, a rise
// or within-tolerance drift passes, a previously-measured gauge going
// missing (or zero) fails, and a first measurement passes with gating
// deferred to the next snapshot pair.
func TestDiffGaugeGateVerdicts(t *testing.T) {
	const eps = "bench.smc_train.episodes_per_sec"
	gated := []string{eps}
	cases := []struct {
		name     string
		old, new map[string]float64
		fail     bool
	}{
		{
			name: "improvement passes",
			old:  map[string]float64{eps: 3.7},
			new:  map[string]float64{eps: 12.1},
			fail: false,
		},
		{
			name: "within tolerance drop passes",
			old:  map[string]float64{eps: 3.7},
			new:  map[string]float64{eps: 3.2},
			fail: false,
		},
		{
			name: "drop beyond tolerance fails",
			old:  map[string]float64{eps: 3.7},
			new:  map[string]float64{eps: 2.0},
			fail: true,
		},
		{
			name: "previously measured gauge missing fails",
			old:  map[string]float64{eps: 3.7},
			new:  map[string]float64{},
			fail: true,
		},
		{
			name: "previously measured gauge zero fails",
			old:  map[string]float64{eps: 3.7},
			new:  map[string]float64{eps: 0},
			fail: true,
		},
		{
			name: "new metric starts gating next snapshot",
			old:  map[string]float64{},
			new:  map[string]float64{eps: 3.7},
			fail: false,
		},
		{
			name: "gauge absent from both snapshots passes",
			old:  map[string]float64{},
			new:  map[string]float64{},
			fail: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := diff(gaugeSnap(tc.old), gaugeSnap(tc.new), nil, gated, 0.20); got != tc.fail {
				t.Errorf("diff failed=%v, want %v", got, tc.fail)
			}
		})
	}
}

// Every committed snapshot must still load and carry metrics: the report
// writers drop and add config fields over time (the engine options left
// the bench and loadgen configs), and the gate has to keep reading the
// whole history.
func TestLoadCommittedSnapshots(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_*.json snapshots at the repository root")
	}
	for _, p := range paths {
		s, err := load(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if len(s.Telemetry.Histograms) == 0 {
			t.Errorf("%s (kind %s): no latency histograms decoded", p, s.Kind)
		}
	}
}
