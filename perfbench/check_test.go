package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/monitor"
	"repro/internal/sti"
)

// serverScore renders a score the way the server's JSON encoder does.
func serverScore(w scoreWire) map[string]any {
	actors := make([]map[string]any, len(w.Actors))
	for i, a := range w.Actors {
		actors[i] = map[string]any{"id": a.ID, "sti": a.STI, "without_volume": a.WithoutVolume}
	}
	return map[string]any{
		"version": scoreVersion, "combined_sti": w.Combined, "most_threatening": w.MostThreatening,
		"actors": actors, "base_volume": w.BaseVolume, "empty_volume": w.EmptyVolume,
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// flipEveryBit flips each bit of each byte of body outside the skipped
// spans, one at a time, and requires the check to fail on every copy.
func flipEveryBit(t *testing.T, body []byte, skip [][2]int, passes func([]byte) bool) {
	t.Helper()
	if !passes(body) {
		t.Fatalf("unmodified body fails the check: %s", body)
	}
	for i := range body {
		skipped := false
		for _, s := range skip {
			skipped = skipped || (i >= s[0] && i < s[1])
		}
		if skipped {
			continue
		}
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), body...)
			mut[i] ^= 1 << bit
			if passes(mut) {
				t.Errorf("flipping bit %d of byte %d (%q) passed the check: %s", bit, i, body[i], mut)
			}
		}
	}
}

func TestCheckerFailsOnAnyFlippedBit(t *testing.T) {
	res := sti.Result{
		PerActor: []float64{0, 0.4375, 0.21}, Combined: 0.625,
		BaseVolume: 171.5, EmptyVolume: 457.25, WithoutVolume: []float64{171.5, 371.5, 267.5},
	}
	want, err := expectScore(res, []int{1, 7, 12})
	if err != nil {
		t.Fatal(err)
	}
	batch := mustJSON(t, map[string]any{"version": scoreVersion, "results": []any{serverScore(want), serverScore(want)}})
	flipEveryBit(t, batch, nil, func(b []byte) bool {
		for _, err := range checkBatchBody(b, []scoreWire{want, want}) {
			if err != nil {
				return false
			}
		}
		return true
	})

	obsWant, err := expectObserve(monitor.Sample{Time: 0.5, STI: 0.3125, TTC: math.Inf(1), DistCIPA: 12.75, MostThreatening: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The server's observe answer. seq and time are excluded from the
	// check, so flips inside those members are skipped.
	body := []byte(`{"version":"iprism.score/v1","seq":17,"time":0.5,"sti":0.3125,"ttc":-1,"dist_cipa":12.75,"most_threatening":4}` + "\n")
	var skip [][2]int
	for _, v := range []string{`"seq":17`, `"time":0.5`} {
		at := strings.Index(string(body), v)
		skip = append(skip, [2]int{at, at + len(v)})
	}
	flipEveryBit(t, body, skip, func(b []byte) bool {
		_, err := checkObserveBody(b, obsWant)
		return err == nil
	})

	// One flipped bit of one decoded value, anywhere in its 64 bits.
	for bit := 0; bit < 64; bit++ {
		got := want
		got.Actors = append([]actorWire(nil), want.Actors...)
		got.Actors[1].WithoutVolume = math.Float64frombits(math.Float64bits(got.Actors[1].WithoutVolume) ^ 1<<bit)
		if checkScore(got, want) == nil {
			t.Errorf("without_volume with bit %d flipped passed", bit)
		}
	}
}

func TestCheckerRejectsOutOfRangeSTI(t *testing.T) {
	want, err := expectScore(sti.Result{Combined: 1.5, BaseVolume: 1, EmptyVolume: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkScore(want, want); err == nil {
		t.Error("an STI of 1.5 equal to its oracle passed; STI must lie in [0,1]")
	}
}
