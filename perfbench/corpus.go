package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/reach"
	"repro/internal/scenario"
	"repro/internal/scene"
	"repro/internal/sti"
)

// The corpus_score traffic: corpusClients clients in a closed loop, each
// posting batches of batchSize scenes to /v1/score/batch. Every batch holds
// one fixture of each of the six typologies (drawn by seed from
// fixturesPerTypology) and two UrbanCrush crowds, the crowd sizes rotating
// so that 12, 64 and 128 actors appear equally often. No trajectories are
// sent, so the server predicts them.
const (
	corpusClients       = 2
	batchSize           = 8
	fixturesPerTypology = 20
)

var crowdSizes = []int{12, 64, 128}

// corpusScene is one distinct scene, its exact wire bytes and its oracle.
type corpusScene struct {
	id    string
	class string // single | multi | crowd
	body  []byte
	sc    scene.Scene
	want  scoreWire
	empty float64 // oracle |T^∅|
}

type corpusWorkload struct {
	seed       int64
	scenes     []*corpusScene
	byTypology [][]int // scene indices per typology
	crowd      []int   // scene index per crowd size
}

func newCorpusWorkload(seed int64) *corpusWorkload { return &corpusWorkload{seed: seed} }

func (w *corpusWorkload) name() string { return "corpus_score" }

func (w *corpusWorkload) add(id string, sc scene.Scene) (int, error) {
	body, err := scene.Encode(sc)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", id, err)
	}
	class := "multi"
	switch n := len(sc.Actors); {
	case n == 1:
		class = "single"
	case n > 3:
		class = "crowd"
	}
	w.scenes = append(w.scenes, &corpusScene{id: id, class: class, body: body})
	return len(w.scenes) - 1, nil
}

func (w *corpusWorkload) prepare() error {
	typologies := append(append([]scenario.Typology(nil), scenario.Typologies...), scenario.RoundaboutCutIn)
	for _, ty := range typologies {
		fx, err := scenario.Fixtures(ty, fixturesPerTypology, w.seed)
		if err != nil {
			return err
		}
		var idx []int
		for i, sc := range fx {
			k, err := w.add(fmt.Sprintf("%s#%d", ty, i), sc)
			if err != nil {
				return err
			}
			idx = append(idx, k)
		}
		w.byTypology = append(w.byTypology, idx)
	}
	for _, n := range crowdSizes {
		m, ego, actors := scenario.UrbanCrush(n)
		sc, err := scene.FromParts(m, ego, actors, 0)
		if err != nil {
			return err
		}
		k, err := w.add(fmt.Sprintf("crowd%d", n), sc)
		if err != nil {
			return err
		}
		w.crowd = append(w.crowd, k)
	}
	for _, cs := range w.scenes {
		if err := cs.computeOracle(); err != nil {
			return err
		}
	}
	return nil
}

// computeOracle scores the exact bytes sent with a fresh evaluator.
func (cs *corpusScene) computeOracle() error {
	sc, err := scene.Decode(cs.body)
	if err != nil {
		return fmt.Errorf("%s: %w", cs.id, err)
	}
	cs.sc = sc
	ev, err := sti.NewEvaluator(reach.DefaultConfig())
	if err != nil {
		return err
	}
	m, ego, actors, _, _, err := sc.Materialize()
	if err != nil {
		return fmt.Errorf("%s: %w", cs.id, err)
	}
	trajs := actor.PredictAll(actors, ev.Config().NumSlices(), ev.Config().SliceDt)
	res, _ := ev.EvaluateTraced(context.Background(), m, ego, actors, trajs)
	ids := make([]int, len(actors))
	for i, a := range actors {
		ids[i] = a.ID
	}
	cs.empty = res.EmptyVolume
	cs.want, err = expectScore(res, ids)
	return err
}

func (w *corpusWorkload) degenerate() (int, int) {
	n := 0
	for _, cs := range w.scenes {
		if cs.empty == 0 {
			n++
		}
	}
	return n, len(w.scenes)
}

// batch returns the scene indices of batch i, a pure function of the seed
// and i.
func (w *corpusWorkload) batch(i int64) []int {
	rng := rand.New(rand.NewSource(w.seed*1_000_003 + i))
	out := make([]int, 0, batchSize)
	for _, idx := range w.byTypology {
		out = append(out, idx[rng.Intn(len(idx))])
	}
	for k := int64(0); len(out) < batchSize; k++ {
		out = append(out, w.crowd[(i*2+k)%int64(len(w.crowd))])
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// batchBody splices the scenes' exact bytes into one batch request.
func (w *corpusWorkload) batchBody(idx []int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"scenes":[`)
	for k, i := range idx {
		if k > 0 {
			b.WriteByte(',')
		}
		b.Write(w.scenes[i].body)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// send posts one batch and checks every scene, keyed by (batch, index).
// It returns the scenes that matched.
func (w *corpusWorkload) send(s *serverProc, t *tally, label string, idx []int) (reply, int) {
	r := call(s.client, http.MethodPost, s.base+"/v1/score/batch", w.batchBody(idx))
	want := make([]scoreWire, len(idx))
	for k, i := range idx {
		want[k] = w.scenes[i].want
	}
	var errs []error
	if err := r.ok(); err != nil {
		errs = make([]error, len(idx))
		for k := range errs {
			errs[k] = err
		}
	} else {
		errs = checkBatchBody(r.body, want)
	}
	okScenes := 0
	for k, err := range errs {
		t.note(fmt.Sprintf("%s[%d] %s", label, k, w.scenes[idx[k]].id), err)
		if err == nil {
			okScenes++
		}
	}
	return r, okScenes
}

func (w *corpusWorkload) warmUp(s *serverProc, t *tally) {
	for lo := 0; lo < len(w.scenes); lo += batchSize {
		var idx []int
		for i := lo; i < len(w.scenes) && i < lo+batchSize; i++ {
			idx = append(idx, i)
		}
		w.send(s, t, fmt.Sprintf("warm-up batch %d", lo/batchSize), idx)
	}
}

func (w *corpusWorkload) run(s *serverProc, window time.Duration, t *tally, _ bool) segment {
	cpu := cpuDelta(s.pid)
	start := time.Now()
	end := start.Add(window)
	var next atomic.Int64
	var mu sync.Mutex
	var seg segment
	var wg sync.WaitGroup
	for c := 0; c < corpusClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				i := next.Add(1) - 1
				t0 := time.Now()
				r, okScenes := w.send(s, t, fmt.Sprintf("batch %d", i), w.batch(i))
				if okScenes < batchSize {
					continue
				}
				mu.Lock()
				seg.records = append(seg.records, opRecord{
					latency: r.done.Sub(t0), client: r.done.Sub(r.sent),
					requestID: r.requestID, ops: okScenes,
				})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	seg.elapsed = time.Since(start)
	seg.cpuMS = cpu()
	return seg
}

func (w *corpusWorkload) explain(s *serverProc, t *tally) []string {
	var out []string
	seen := map[string]bool{}
	for _, cs := range w.scenes {
		key := cs.class
		if cs.class == "crowd" {
			key = cs.id
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		r := call(s.client, http.MethodPost, s.base+"/v1/score?explain=1", cs.body)
		err := r.ok()
		var got scoreWire
		if err == nil {
			got, err = checkScoreBody(r.body, cs.want)
		}
		t.note(cs.id+" explain", err)
		if err == nil {
			out = append(out, fmt.Sprintf("%s (%s, %d actors): %s", key, cs.id, len(cs.sc.Actors), got.Provenance))
		}
	}
	return out
}
