package main

import (
	"testing"
	"time"
)

// fakeClock is a single-goroutine clock: sleeping jumps to the wake-up
// time, and the fake server advances it by each request's service time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

// stallingSessions answers every tick in 5 ms except the stallAt-th, which
// takes stall.
type stallingSessions struct {
	clk     *fakeClock
	calls   int
	stallAt int
	stall   time.Duration
}

func (s *stallingSessions) create() (string, error) { return "s1", nil }
func (s *stallingSessions) remove(string) error     { return nil }
func (s *stallingSessions) observe(string, int, int) reply {
	r := reply{status: 200, sent: s.clk.now}
	d := 5 * time.Millisecond
	if s.calls == s.stallAt {
		d = s.stall
	}
	s.calls++
	s.clk.now = s.clk.now.Add(d)
	r.done = s.clk.now
	return r
}

func TestOpenLoopTimesTicksFromDueTimeThroughAStall(t *testing.T) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := &fakeClock{now: start}
	api := &stallingSessions{clk: clk, stallAt: 3, stall: 450 * time.Millisecond}
	sch := slotSchedule{phase: 0, plan: func(j int) sessionPlan { return sessionPlan{trace: 0} }}
	var got []tickResult
	runSlot(clk, api, start, time.Second, sch, func(tr tickResult) { got = append(got, tr) })

	// Ticks are due every 100 ms; tick 3 (due 300 ms) stalls 450 ms, so
	// ticks 4-7, due while it was stuck, leave late and are charged from
	// their due time.
	want := []struct{ latency, lag time.Duration }{
		{5, 0}, {5, 0}, {5, 0},
		{450, 0},
		{355, 350}, {260, 255}, {165, 160}, {70, 65},
		{5, 0}, {5, 0},
	}
	if len(got) != len(want) {
		t.Fatalf("%d ticks sent in a 1 s window at 10 Hz, want %d", len(got), len(want))
	}
	lags := samples{}
	for i, w := range want {
		if d := got[i].due.Sub(start); d != time.Duration(i)*tickPeriod {
			t.Errorf("tick %d due at %v, want %v", i, d, time.Duration(i)*tickPeriod)
		}
		if l := got[i].latency(); l != w.latency*time.Millisecond {
			t.Errorf("tick %d latency %v, want %v", i, l, w.latency*time.Millisecond)
		}
		if l := got[i].lag(); l != w.lag*time.Millisecond {
			t.Errorf("tick %d generator lag %v, want %v", i, l, w.lag*time.Millisecond)
		}
		lags = append(lags, ms(got[i].lag()))
	}
	if p := lags.percentile(99); p != 350 {
		t.Errorf("generator lag p99 = %v ms, want 350", p)
	}
}

func TestOpenLoopKeepsSessionTicksInOrder(t *testing.T) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := &fakeClock{now: start}
	api := &stallingSessions{clk: clk, stallAt: -1}
	sch := slotSchedule{plan: func(j int) sessionPlan { return sessionPlan{trace: j % 3, from: 58 * (1 - min(j, 1))} }}
	var got []tickResult
	runSlot(clk, api, start, 700*time.Millisecond, sch, func(tr tickResult) { got = append(got, tr) })
	// First session: ticks 58, 59 of trace 0; then a new session from tick
	// 0 of trace 1.
	wantTicks := []int{58, 59, 0, 1, 2, 3, 4}
	if len(got) != len(wantTicks) {
		t.Fatalf("%d ticks, want %d", len(got), len(wantTicks))
	}
	for i, w := range wantTicks {
		if got[i].tick != w || got[i].trace != min(i/2, 1) {
			t.Errorf("tick %d = (trace %d, tick %d), want (trace %d, tick %d)", i, got[i].trace, got[i].tick, min(i/2, 1), w)
		}
	}
}
