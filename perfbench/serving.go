package main

import (
	"fmt"
	"math"
	"time"
)

// servingWorkload is one traffic mix driven against iprism-serve.
type servingWorkload interface {
	name() string
	// prepare builds the inputs and computes their oracle, off the clock.
	prepare() error
	// warmUp sends every distinct input once, untimed but checked.
	warmUp(s *serverProc, t *tally)
	// run drives the timed traffic for d. traced adds ?explain=1 where the
	// route supports it; the caller polls the flight recorder.
	run(s *serverProc, d time.Duration, t *tally, traced bool) segment
	// explain scores the first input of each class with ?explain=1 and
	// returns the provenance the server reported, one line per class.
	explain(s *serverProc, t *tally) []string
	// degenerate counts the distinct inputs whose oracle |T^∅| is 0.
	degenerate() (count, inputs int)
}

// opRecord is one successful timed request.
type opRecord struct {
	latency   time.Duration // from the due time (open loop) or send (closed loop)
	lag       time.Duration // open loop: connection acquired minus due time
	client    time.Duration // connection acquired to body read
	requestID string
	ops       int // operations the request completed (ticks or scenes)
}

// segment is one timed phase.
type segment struct {
	records []opRecord
	elapsed time.Duration
	cpuMS   float64 // server user+sys CPU over the phase
}

// cpuDelta reads the process's CPU time at start and returns a function
// giving the CPU consumed since; a failed read yields NaN, which fails the
// run rather than reporting a wrong number.
func cpuDelta(pid int) func() float64 {
	c0, err0 := procCPUms(pid)
	return func() float64 {
		c1, err1 := procCPUms(pid)
		if err0 != nil || err1 != nil {
			return math.NaN()
		}
		return c1 - c0
	}
}

func (s segment) ops() int {
	n := 0
	for _, r := range s.records {
		n += r.ops
	}
	return n
}

func (s segment) latencies() samples {
	out := make(samples, len(s.records))
	for i, r := range s.records {
		out[i] = ms(r.latency)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// servingReps is how many server processes one untraced run measures.
// Each is set up (process start plus the warm-up pass) and then measured
// for an equal share of the run. Every end-to-end figure is the median over
// the processes of that process's own figure, so a host slowdown that
// covers less than half of a run does not move it; latency percentiles are
// exact order statistics of each process's raw samples.
const servingReps = 5

// serverCounters are read back from the server after the timed phase, so
// the record says which engines actually ran.
var serverCounters = []string{
	"iprism_sti_shared_expansion_evals_total",
	"iprism_reach_warm_invalidated_states_total",
}

// startAndWarm starts a server and runs the warm-up pass, returning the
// set-up time.
func startAndWarm(w servingWorkload, t *tally) (*serverProc, time.Duration, error) {
	t0 := time.Now()
	s, err := startServer()
	if err != nil {
		return nil, 0, err
	}
	w.warmUp(s, t)
	return s, time.Since(t0), nil
}

// runServing is the untraced run of a serving workload.
func runServing(w servingWorkload, budget time.Duration, t *tally, rep *report) error {
	if err := w.prepare(); err != nil {
		return err
	}
	deg, inputs := w.degenerate()
	fmt.Printf("%s: %d of %d distinct inputs have oracle |T^∅| = 0 (degenerate, kept)\n", w.name(), deg, inputs)

	var setups, rates, p50s, p99s, cpus, rss samples
	for i := 0; i < servingReps; i++ {
		s, setup, err := startAndWarm(w, t)
		if err != nil {
			return err
		}
		seg := w.run(s, budget/servingReps, t, false)
		hwm, err := procPeakRSSMiB(s.pid)
		if err != nil {
			s.kill()
			return err
		}
		if i == servingReps-1 {
			printRecord(w, s, t)
		}
		if err := s.stop(); err != nil {
			return err
		}
		if seg.ops() == 0 {
			return fmt.Errorf("server process %d completed no operation", i+1)
		}
		lat := seg.latencies()
		setups = append(setups, setup.Seconds())
		rates = append(rates, float64(seg.ops())/seg.elapsed.Seconds())
		p50s = append(p50s, lat.percentile(50))
		p99s = append(p99s, lat.percentile(99))
		cpus = append(cpus, seg.cpuMS/float64(seg.ops()))
		rss = append(rss, hwm)
		fmt.Printf("%s process %d: setup %.3f s, %d ops in %.3f s, latency %s, VmHWM %.1f MiB\n",
			w.name(), i+1, setup.Seconds(), seg.ops(), seg.elapsed.Seconds(), lat.summary("ms"), hwm)
		if _, open := w.(*sessionWorkload); open {
			var lags samples
			for _, r := range seg.records {
				lags = append(lags, ms(r.lag))
			}
			fmt.Printf("%s process %d generator lag: %s\n", w.name(), i+1, lags.summary("ms"))
		}
	}
	rep.set("setup_s", setups.median(), "s")
	rep.set("throughput_per_s", rates.median(), "ops/s")
	rep.set("latency_p50_ms", p50s.median(), "ms")
	rep.set("latency_p99_ms", p99s.median(), "ms")
	rep.set("cpu_ms_per_op", cpus.median(), "ms")
	rep.set("peak_rss_mib", rss.median(), "MiB")
	return nil
}

// printRecord prints what the server ran, read back from the server.
func printRecord(w servingWorkload, s *serverProc, t *tally) {
	if c, err := s.scrapeCounters(serverCounters...); err != nil {
		t.fail("record /metrics", err)
	} else {
		for _, n := range serverCounters {
			fmt.Printf("record: %s %s = %.0f\n", w.name(), n, c[n])
		}
	}
	for _, line := range w.explain(s, t) {
		fmt.Printf("record: %s explain %s\n", w.name(), line)
	}
}
