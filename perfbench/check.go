package main

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/monitor"
	"repro/internal/sti"
)

// The response documents as the benchmark reads them off the wire. They are
// declared here rather than imported so that the checks depend on the wire
// format alone. Fields excluded from the check (seq, time, trace and request
// IDs) are not decoded.

type actorWire struct {
	ID            int     `json:"id"`
	STI           float64 `json:"sti"`
	WithoutVolume float64 `json:"without_volume"`
}

// scoreWire is one scored scene of /v1/score or /v1/score/batch.
type scoreWire struct {
	Combined        float64     `json:"combined_sti"`
	MostThreatening int         `json:"most_threatening"`
	Actors          []actorWire `json:"actors,omitempty"`
	BaseVolume      float64     `json:"base_volume"`
	EmptyVolume     float64     `json:"empty_volume"`
	Error           string      `json:"error,omitempty"`
	Provenance      *provenWire `json:"provenance,omitempty"`
}

// observeWire is one /v1/sessions/{id}/observe answer.
type observeWire struct {
	STI             float64     `json:"sti"`
	TTC             float64     `json:"ttc"`
	DistCIPA        float64     `json:"dist_cipa"`
	MostThreatening int         `json:"most_threatening"`
	Provenance      *provenWire `json:"provenance,omitempty"`
}

// provenWire is the ?explain=1 block, read only for the run record.
type provenWire struct {
	Engine          string `json:"engine"`
	CacheState      string `json:"cache_state"`
	MaskWords       int    `json:"mask_words"`
	ElidedActors    int    `json:"elided_actors"`
	WarmHit         bool   `json:"warm_hit"`
	WarmReused      int    `json:"warm_reused"`
	WarmInvalidated int    `json:"warm_invalidated"`
}

func (p *provenWire) String() string {
	if p == nil {
		return "no provenance"
	}
	return fmt.Sprintf("engine=%s mask_words=%d cache=%s warm_hit=%v reused=%d invalidated=%d elided=%d",
		p.Engine, p.MaskWords, p.CacheState, p.WarmHit, p.WarmReused, p.WarmInvalidated, p.ElidedActors)
}

// expectScore is the oracle's answer for one scene, shaped and round-tripped
// through JSON exactly as the server's would be.
func expectScore(res sti.Result, ids []int) (scoreWire, error) {
	w := scoreWire{Combined: res.Combined, MostThreatening: -1, BaseVolume: res.BaseVolume, EmptyVolume: res.EmptyVolume}
	if idx, _ := res.MostThreatening(); idx >= 0 {
		w.MostThreatening = ids[idx]
	}
	for i, id := range ids {
		w.Actors = append(w.Actors, actorWire{ID: id, STI: res.PerActor[i], WithoutVolume: res.WithoutVolume[i]})
	}
	return roundTrip(w)
}

// expectObserve is the oracle's answer for one session tick, with the
// wire's −1 encoding of a non-finite TTC or DistCIPA.
func expectObserve(s monitor.Sample) (observeWire, error) {
	w := observeWire{STI: s.STI, TTC: wireFinite(s.TTC), DistCIPA: wireFinite(s.DistCIPA), MostThreatening: s.MostThreatening}
	return roundTrip(w)
}

func wireFinite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return -1
	}
	return v
}

func roundTrip[T any](v T) (T, error) {
	var out T
	raw, err := json.Marshal(v)
	if err != nil {
		return out, err
	}
	err = json.Unmarshal(raw, &out)
	return out, err
}

// checkSTI reports an STI outside [0,1] or non-finite.
func checkSTI(what string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
		return fmt.Errorf("%s = %v outside [0,1]", what, v)
	}
	return nil
}

// sameBits compares two floats bit for bit.
func sameBits(what string, got, want float64) error {
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("%s = %v (bits %#x), oracle %v (bits %#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return nil
}

// checkScore compares one served scene score with its oracle.
func checkScore(got, want scoreWire) error {
	if got.Error != "" {
		return fmt.Errorf("server error %q", got.Error)
	}
	if err := checkSTI("combined_sti", got.Combined); err != nil {
		return err
	}
	for _, a := range got.Actors {
		if err := checkSTI(fmt.Sprintf("actor %d sti", a.ID), a.STI); err != nil {
			return err
		}
	}
	if err := sameBits("combined_sti", got.Combined, want.Combined); err != nil {
		return err
	}
	if err := sameBits("base_volume", got.BaseVolume, want.BaseVolume); err != nil {
		return err
	}
	if err := sameBits("empty_volume", got.EmptyVolume, want.EmptyVolume); err != nil {
		return err
	}
	if got.MostThreatening != want.MostThreatening {
		return fmt.Errorf("most_threatening = %d, oracle %d", got.MostThreatening, want.MostThreatening)
	}
	if len(got.Actors) != len(want.Actors) {
		return fmt.Errorf("%d actors, oracle %d", len(got.Actors), len(want.Actors))
	}
	for i, a := range got.Actors {
		w := want.Actors[i]
		if a.ID != w.ID {
			return fmt.Errorf("actor %d id = %d, oracle %d", i, a.ID, w.ID)
		}
		if err := sameBits(fmt.Sprintf("actor %d sti", a.ID), a.STI, w.STI); err != nil {
			return err
		}
		if err := sameBits(fmt.Sprintf("actor %d without_volume", a.ID), a.WithoutVolume, w.WithoutVolume); err != nil {
			return err
		}
	}
	return nil
}

// checkObserve compares one served session tick with its oracle.
func checkObserve(got, want observeWire) error {
	if err := checkSTI("sti", got.STI); err != nil {
		return err
	}
	if err := sameBits("sti", got.STI, want.STI); err != nil {
		return err
	}
	if err := sameBits("ttc", got.TTC, want.TTC); err != nil {
		return err
	}
	if err := sameBits("dist_cipa", got.DistCIPA, want.DistCIPA); err != nil {
		return err
	}
	if got.MostThreatening != want.MostThreatening {
		return fmt.Errorf("most_threatening = %d, oracle %d", got.MostThreatening, want.MostThreatening)
	}
	return nil
}

// scoreVersion tags every scoring and observe response of the wire format.
const scoreVersion = "iprism.score/v1"

// object decodes a JSON object and verifies that every key in keys is
// present, so a damaged key fails the check instead of reading as a zero
// value. Keys the benchmark does not know are allowed: the wire format may
// grow.
func object(raw []byte, keys ...string) (map[string]json.RawMessage, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	for _, k := range keys {
		if _, ok := m[k]; !ok {
			return nil, fmt.Errorf("no %q field", k)
		}
	}
	if raw, ok := m["version"]; ok {
		var v string
		if err := json.Unmarshal(raw, &v); err != nil || v != scoreVersion {
			return nil, fmt.Errorf("version %s, want %q", raw, scoreVersion)
		}
	}
	return m, nil
}

// decodeScore decodes one scored scene, requiring every checked field.
func decodeScore(raw []byte) (scoreWire, error) {
	var got scoreWire
	m, err := object(raw, "version", "combined_sti", "most_threatening", "actors", "base_volume", "empty_volume")
	if err != nil {
		return got, err
	}
	var actors []json.RawMessage
	if err := json.Unmarshal(m["actors"], &actors); err != nil {
		return got, err
	}
	for _, a := range actors {
		if _, err := object(a, "id", "sti", "without_volume"); err != nil {
			return got, fmt.Errorf("actor: %w", err)
		}
	}
	err = json.Unmarshal(raw, &got)
	return got, err
}

// checkBatchBody decodes a /v1/score/batch body and checks each result
// against the oracle at the same index. It returns one error per scene
// (nil where the scene matched); a body that does not decode fails all.
func checkBatchBody(body []byte, want []scoreWire) []error {
	errs := make([]error, len(want))
	var results []json.RawMessage
	m, err := object(body, "version", "results")
	if err == nil {
		err = json.Unmarshal(m["results"], &results)
	}
	if err == nil && len(results) != len(want) {
		err = fmt.Errorf("%d results for %d scenes", len(results), len(want))
	}
	if err != nil {
		for i := range errs {
			errs[i] = fmt.Errorf("decode batch: %v", err)
		}
		return errs
	}
	for i, raw := range results {
		got, err := decodeScore(raw)
		if err != nil {
			errs[i] = fmt.Errorf("decode result: %v", err)
			continue
		}
		errs[i] = checkScore(got, want[i])
	}
	return errs
}

// checkObserveBody decodes one observe body and checks it.
func checkObserveBody(body []byte, want observeWire) (observeWire, error) {
	var got observeWire
	if _, err := object(body, "version", "sti", "ttc", "dist_cipa", "most_threatening"); err != nil {
		return got, fmt.Errorf("decode observe: %v", err)
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return got, fmt.Errorf("decode observe: %v", err)
	}
	return got, checkObserve(got, want)
}

// checkScoreBody decodes one /v1/score body and checks it.
func checkScoreBody(body []byte, want scoreWire) (scoreWire, error) {
	got, err := decodeScore(body)
	if err != nil {
		return got, fmt.Errorf("decode score: %v", err)
	}
	return got, checkScore(got, want)
}
