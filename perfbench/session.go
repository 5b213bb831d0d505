package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/actor"
	"repro/internal/monitor"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/scenario"
	"repro/internal/scene"
	"repro/internal/sti"
	"repro/internal/vehicle"
)

// The session_replay traffic: sessionSlots monitoring sessions are open at
// any time, each sending one tick every tickPeriod (the paper's 10 Hz
// monitor rate). A slot replays sessions back to back: create, observe
// each tick in order, delete. Slots start part-way into their first trace
// (staggered), so sessions begin and end at different times from the
// first second on. Slot k replays trace (k+j) mod 3 as its j-th session,
// so with 21 slots every trace is open in exactly seven at any time and
// the seed moves only phases and offsets, not the mix.
const (
	sessionSlots = 21
	tickPeriod   = 100 * time.Millisecond
	sessionTicks = 60
)

// sessionTrace is one recorded session and its oracle.
type sessionTrace struct {
	name   string
	bodies [][]byte      // one observe body per tick, time stamped
	want   []observeWire // oracle per tick
	scenes []scene.Scene // decoded from bodies, for the traced run's library calls
	// empty is the oracle |T^∅| per tick.
	empty []float64
}

type sessionWorkload struct {
	seed   int64
	traces []*sessionTrace
}

func newSessionWorkload(seed int64) *sessionWorkload {
	return &sessionWorkload{seed: seed}
}

func (w *sessionWorkload) name() string { return "session_replay" }

// sessionSources are the three recorded sessions the slots draw from: the
// stop-and-go queue (single-word masks, warm hits on held ticks), the
// roundabout platoon (every tick moves) and the 64-actor crush (two-word
// masks).
func sessionSources() []struct {
	name string
	gen  func() (roadmap.Map, []scenario.SessionTick)
} {
	return []struct {
		name string
		gen  func() (roadmap.Map, []scenario.SessionTick)
	}{
		{"stop-and-go12", func() (roadmap.Map, []scenario.SessionTick) { return scenario.StopAndGoSession(12, sessionTicks) }},
		{"ring8", func() (roadmap.Map, []scenario.SessionTick) { return scenario.RingSession(8, sessionTicks) }},
		{"crush64", func() (roadmap.Map, []scenario.SessionTick) { return scenario.UrbanCrushSession(64, sessionTicks) }},
	}
}

func (w *sessionWorkload) prepare() error {
	for _, src := range sessionSources() {
		m, ticks := src.gen()
		tr := &sessionTrace{name: src.name}
		for i, tk := range ticks {
			sc, err := scene.FromParts(m, tk.Ego, tk.Actors, float64(i)*tickPeriod.Seconds())
			if err != nil {
				return fmt.Errorf("%s tick %d: %w", src.name, i, err)
			}
			body, err := scene.Encode(sc)
			if err != nil {
				return fmt.Errorf("%s tick %d: %w", src.name, i, err)
			}
			tr.bodies = append(tr.bodies, body)
		}
		if err := tr.computeOracle(); err != nil {
			return err
		}
		w.traces = append(w.traces, tr)
	}
	return nil
}

// computeOracle replays the trace cold through a fresh monitor, decoding
// the exact bytes the benchmark sends.
func (tr *sessionTrace) computeOracle() error {
	ev, err := sti.NewEvaluator(reach.DefaultConfig())
	if err != nil {
		return err
	}
	mon := monitor.NewWithEvaluator(ev, 1)
	type decoded struct {
		m      roadmap.Map
		ego    vehicle.State
		actors []*actor.Actor
		trajs  []actor.Trajectory
	}
	var ticks []decoded
	for i, body := range tr.bodies {
		sc, err := scene.Decode(body)
		if err != nil {
			return fmt.Errorf("%s tick %d: %w", tr.name, i, err)
		}
		m, ego, actors, trajs, hasTrajs, err := sc.Materialize()
		if err != nil {
			return fmt.Errorf("%s tick %d: %w", tr.name, i, err)
		}
		if !hasTrajs {
			trajs = nil
		}
		want, err := expectObserve(mon.Observe(m, ego, actors, trajs, sc.Time))
		if err != nil {
			return err
		}
		tr.want = append(tr.want, want)
		tr.scenes = append(tr.scenes, sc)
		ticks = append(ticks, decoded{m, ego, actors, trajs})
	}
	// |T^∅| depends on the map and the ego alone; read it from the same
	// evaluator (and so the same empty-volume cache) the oracle used.
	byEgo := map[vehicle.State]float64{}
	for _, d := range ticks {
		v, ok := byEgo[d.ego]
		if !ok {
			trajs := d.trajs
			if trajs == nil {
				trajs = actor.PredictAll(d.actors, ev.Config().NumSlices(), ev.Config().SliceDt)
			}
			v = ev.Evaluate(d.m, d.ego, d.actors, trajs).EmptyVolume
			byEgo[d.ego] = v
		}
		tr.empty = append(tr.empty, v)
	}
	return nil
}

func (w *sessionWorkload) degenerate() (int, int) {
	n, all := 0, 0
	for _, tr := range w.traces {
		for _, v := range tr.empty {
			all++
			if v == 0 {
				n++
			}
		}
	}
	return n, all
}

// sessionPlan is one session a slot replays: ticks from..sessionTicks-1 of
// trace.
type sessionPlan struct {
	trace, from int
}

// slotSchedule is the seeded plan of one slot: its phase within the tick
// period and the sessions it replays in order.
type slotSchedule struct {
	phase time.Duration
	plan  func(j int) sessionPlan
}

func (w *sessionWorkload) schedule(slot int) slotSchedule {
	rng := rand.New(rand.NewSource(w.seed*7919 + int64(slot)))
	phase := time.Duration(rng.Int63n(int64(tickPeriod)))
	first := (slot*sessionTicks/sessionSlots + rng.Intn(3)) % sessionTicks
	return slotSchedule{
		phase: phase,
		plan: func(j int) sessionPlan {
			p := sessionPlan{trace: (slot + j) % len(w.traces)}
			if j == 0 {
				p.from = first
			}
			return p
		},
	}
}

// clock lets the open-loop accounting run on a fake clock in tests.
type clock interface {
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// sessionAPI is the session surface one slot drives.
type sessionAPI interface {
	create() (string, error)
	observe(id string, trace, tick int) reply
	remove(id string) error
}

// tickResult is one tick as sent: its schedule slot and what came back.
type tickResult struct {
	trace, tick int
	due         time.Time
	r           reply
}

// latency is the tick's time from when it was due to its answer, so a
// stall also charges the ticks queued behind it.
func (t tickResult) latency() time.Duration { return t.r.done.Sub(t.due) }

// lag is how late the generator sent the tick against its schedule.
func (t tickResult) lag() time.Duration { return t.r.sent.Sub(t.due) }

// runSlot replays sessions back to back on one slot, sending tick n of the
// slot at start+phase+n·tickPeriod, until the next tick would fall at or
// after start+window. Ticks of a session are sent in order, each after the
// previous one was answered; a tick that is already late goes at once and
// keeps its due time. Every tick scheduled is reported to rec.
func runSlot(clk clock, api sessionAPI, start time.Time, window time.Duration, sch slotSchedule, rec func(tickResult)) {
	n := 0
	due := func() time.Time { return start.Add(sch.phase + time.Duration(n)*tickPeriod) }
	for j := 0; due().Sub(start) < window; j++ {
		p := sch.plan(j)
		id, err := api.create()
		for t := p.from; t < sessionTicks && due().Sub(start) < window; t++ {
			d := due()
			n++
			clk.SleepUntil(d)
			if err != nil {
				rec(tickResult{trace: p.trace, tick: t, due: d, r: reply{err: fmt.Errorf("session create: %w", err)}})
				continue
			}
			rec(tickResult{trace: p.trace, tick: t, due: d, r: api.observe(id, p.trace, t)})
		}
		if err == nil {
			api.remove(id)
		}
	}
}

// httpSessions is the sessionAPI over one server.
type httpSessions struct {
	s       *serverProc
	w       *sessionWorkload
	t       *tally
	explain bool
}

func (h httpSessions) create() (string, error) {
	r := call(h.s.client, http.MethodPost, h.s.base+"/v1/sessions", nil)
	err := r.ok()
	var doc struct {
		ID string `json:"id"`
	}
	if err == nil {
		if err = json.Unmarshal(r.body, &doc); err == nil && doc.ID == "" {
			err = fmt.Errorf("create answered no session id")
		}
	}
	h.t.note("session create", err)
	return doc.ID, err
}

func (h httpSessions) observe(id string, trace, tick int) reply {
	url := h.s.base + "/v1/sessions/" + id + "/observe"
	if h.explain {
		url += "?explain=1"
	}
	return call(h.s.client, http.MethodPost, url, h.w.traces[trace].bodies[tick])
}

func (h httpSessions) remove(id string) error {
	r := call(h.s.client, http.MethodDelete, h.s.base+"/v1/sessions/"+id, nil)
	err := r.ok()
	h.t.note("session delete "+id, err)
	return err
}

// check verifies one tick against its oracle, keyed by (trace, tick).
func (w *sessionWorkload) check(t *tally, tr tickResult) (observeWire, bool) {
	id := fmt.Sprintf("%s tick %d", w.traces[tr.trace].name, tr.tick)
	if err := tr.r.ok(); err != nil {
		t.note(id, err)
		return observeWire{}, false
	}
	got, err := checkObserveBody(tr.r.body, w.traces[tr.trace].want[tr.tick])
	t.note(id, err)
	return got, err == nil
}

// replayOnce runs one whole session of a trace sequentially, untimed.
func (w *sessionWorkload) replayOnce(s *serverProc, t *tally, trace int) {
	api := httpSessions{s: s, w: w, t: t}
	id, err := api.create()
	if err != nil {
		return
	}
	for tick := range w.traces[trace].bodies {
		w.check(t, tickResult{trace: trace, tick: tick, r: api.observe(id, trace, tick)})
	}
	api.remove(id)
}

func (w *sessionWorkload) warmUp(s *serverProc, t *tally) {
	for i := range w.traces {
		w.replayOnce(s, t, i)
	}
}

// sessionRamp is the untimed lead-in of each timed phase. Every slot opens
// its first session, cold, within the first tick period; the lead-in keeps
// that start-up burst, which steady traffic never sees, out of the
// latency samples.
const sessionRamp = time.Second

func (w *sessionWorkload) run(s *serverProc, window time.Duration, t *tally, traced bool) segment {
	api := httpSessions{s: s, w: w, t: t, explain: traced}
	start := time.Now().Add(10 * time.Millisecond)
	measured := start.Add(sessionRamp)
	var mu sync.Mutex
	var seg segment
	var lastDone time.Time
	var wg sync.WaitGroup
	cpu := make(chan func() float64, 1)
	go func() {
		realClock{}.SleepUntil(measured)
		cpu <- cpuDelta(s.pid)
	}()
	for slot := 0; slot < sessionSlots; slot++ {
		sch := w.schedule(slot)
		wg.Add(1)
		go func() {
			defer wg.Done()
			runSlot(realClock{}, api, start, sessionRamp+window, sch, func(tr tickResult) {
				if _, ok := w.check(t, tr); !ok || tr.due.Before(measured) {
					return
				}
				mu.Lock()
				if tr.r.done.After(lastDone) {
					lastDone = tr.r.done
				}
				seg.records = append(seg.records, opRecord{
					latency: tr.latency(), lag: tr.lag(), client: tr.r.done.Sub(tr.r.sent),
					requestID: tr.r.requestID, ops: 1,
				})
				mu.Unlock()
			})
		}()
	}
	wg.Wait()
	seg.cpuMS = (<-cpu)()
	// Throughput is ticks over the schedule window, stretched only when
	// answers arrive after it closes: a growing backlog shows as a rate
	// below the offered 10 Hz per session.
	seg.elapsed = max(window, lastDone.Sub(measured))
	return seg
}

func (w *sessionWorkload) explain(s *serverProc, t *tally) []string {
	api := httpSessions{s: s, w: w, t: t, explain: true}
	var out []string
	for i, tr := range w.traces {
		id, err := api.create()
		if err != nil {
			continue
		}
		for tick := 0; tick < 2; tick++ {
			got, ok := w.check(t, tickResult{trace: i, tick: tick, r: api.observe(id, i, tick)})
			if ok {
				out = append(out, fmt.Sprintf("%s tick %d: %s", tr.name, tick, got.Provenance))
			}
		}
		api.remove(id)
	}
	return out
}
