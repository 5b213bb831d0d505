package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// The traced run measures every workload's layers in one invocation, so
// each traced run reports the whole per-layer picture. For each workload it
// times an untraced phase and then a traced phase of equal length on the
// same system process; the layer table comes from the traced phase, and the
// gap between the phases is the tracing overhead.

// runTraced runs every workload traced, the named one first.
func runTraced(first string, seed int64, budget time.Duration) (result, error) {
	order := []string{first}
	for _, n := range workloadNames {
		if n != first {
			order = append(order, n)
		}
	}
	// Each workload gets two phases; the library probes below run on top.
	phase := budget / time.Duration(2*len(order))
	var t tally
	rep := newReport()
	sw, cw := newSessionWorkload(seed), newCorpusWorkload(seed)
	var trainObs []sim.Observation
	for _, name := range order {
		var err error
		switch name {
		case "session_replay":
			err = traceServing(sw, phase, &t, rep)
		case "corpus_score":
			err = traceServing(cw, phase, &t, rep)
		case "smc_train":
			trainObs, err = traceTrain(seed, phase, &t, rep)
		}
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	if err := libraryProbes(sw, cw, trainObs, rep); err != nil {
		return result{}, err
	}
	rep.print("per-layer metrics (traced run)")
	t.report("traced run")
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: rep.metrics}, nil
}

// layerTable is one workload's mean self time per operation by layer.
type layerTable struct {
	title    string
	unit     string // what one row's time is per
	rows     []string
	sums     map[string]float64 // ms summed over ops
	ops      int
	untraced float64 // untraced end-to-end mean, ms per op
	note     string
}

func newLayerTable(title, unit string) *layerTable {
	return &layerTable{title: title, unit: unit, sums: make(map[string]float64)}
}

func (lt *layerTable) add(layer string, ms float64) {
	if _, ok := lt.sums[layer]; !ok {
		lt.rows = append(lt.rows, layer)
	}
	lt.sums[layer] += ms
}

// print writes the table with its explicit residual: the untraced
// end-to-end mean minus the sum of the layer means.
func (lt *layerTable) print() (residual, overhead float64) {
	fmt.Printf("layer table %s (mean self time per %s, n=%d):\n", lt.title, lt.unit, lt.ops)
	total := 0.0
	for _, r := range lt.rows {
		mean := lt.sums[r] / float64(lt.ops)
		total += mean
		fmt.Printf("  %-52s %10.4f ms\n", r, mean)
	}
	residual = lt.untraced - total
	overhead = total/lt.untraced - 1
	fmt.Printf("  %-52s %10.4f ms\n", "sum of layers (traced end-to-end mean)", total)
	fmt.Printf("  %-52s %10.4f ms\n", "untraced end-to-end mean", lt.untraced)
	fmt.Printf("  %-52s %10.4f ms\n", "residual_ms (untraced mean - sum of layers)", residual)
	fmt.Printf("  %-52s %+9.2f %%\n", "tracing overhead (traced / untraced - 1)", 100*overhead)
	if lt.note != "" {
		fmt.Printf("  note: %s\n", lt.note)
	}
	return residual, overhead
}

// spanDepth places the server's flat span list into its call nesting:
// engine spans run inside the observe or evaluate span of their scene.
func spanDepth(name string) int {
	if strings.HasPrefix(name, "reach.") {
		return 2
	}
	return 1
}

// attribute splits a request's wall time [0, totalUS] among its spans: each
// instant belongs to the deepest spans open at it, shared equally when
// several are (the scenes of a batch run concurrently). Instants no span
// covers go to the empty name, the handler's own time. The parts sum to
// totalUS exactly.
func attribute(totalUS float64, spans []wideSpan) map[string]float64 {
	cuts := []float64{0, totalUS}
	for _, sp := range spans {
		cuts = append(cuts, clamp(float64(sp.StartUS), 0, totalUS), clamp(float64(sp.StartUS+sp.DurUS), 0, totalUS))
	}
	sort.Float64s(cuts)
	out := make(map[string]float64)
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if b <= a {
			continue
		}
		depth, n := 0, 0
		for _, sp := range spans {
			if float64(sp.StartUS) <= a && float64(sp.StartUS+sp.DurUS) >= b {
				switch d := spanDepth(sp.Name); {
				case d > depth:
					depth, n = d, 1
				case d == depth:
					n++
				}
			}
		}
		if n == 0 {
			out[""] += b - a
			continue
		}
		for _, sp := range spans {
			if float64(sp.StartUS) <= a && float64(sp.StartUS+sp.DurUS) >= b && spanDepth(sp.Name) == depth {
				out[sp.Name] += (b - a) / float64(n)
			}
		}
	}
	return out
}

func clamp(v, lo, hi float64) float64 { return max(lo, min(hi, v)) }

// traceServing runs one serving workload's untraced and traced phases on
// one server and reports its layers.
func traceServing(w servingWorkload, phase time.Duration, t *tally, rep *report) error {
	if err := w.prepare(); err != nil {
		return err
	}
	s, _, err := startAndWarm(w, t)
	if err != nil {
		return err
	}
	untraced := w.run(s, phase, t, false)
	poll := s.pollFlight()
	traced := w.run(s, phase, t, true)
	events, perr := poll.stop()
	if err := s.stop(); err != nil {
		return err
	}
	if perr != nil {
		t.fail(w.name()+" flight recorder", perr)
	}
	name := w.name()
	_, open := w.(*sessionWorkload)
	lt := newLayerTable(name, "request")
	lt.untraced = untraced.latencies().mean()
	var queue, handle, residual, observeSelf, lags samples
	hits, lookups := 0, 0
	for _, r := range untraced.records {
		lags = append(lags, ms(r.lag))
	}
	for _, r := range traced.records {
		ev, ok := events[r.requestID]
		if !ok {
			continue
		}
		lt.ops++
		handleMS := ev.Seconds * 1000
		qMS := 0.0
		if q, ok := ev.Attrs["queue_wait_seconds"].(float64); ok {
			qMS = q * 1000
		}
		queue = append(queue, qMS)
		handle = append(handle, handleMS)
		residual = append(residual, ms(r.client)-handleMS)
		if open {
			lt.add("generator lag (due -> connection)", ms(r.lag))
		}
		lt.add("client (loopback, HTTP, client codec)", ms(r.latency-r.lag)-handleMS)
		parts := attribute(handleMS*1000, ev.Spans)
		if open {
			// One scene per request: the queue wait is one interval of the
			// handler's own time.
			lt.add("server queue wait", qMS)
			lt.add("server handler (decode, materialize, encode)", parts[""]/1000-qMS)
		} else {
			lt.add("server handler (decode, fan-out, queue, encode)", parts[""]/1000)
		}
		engine := 0.0
		for _, sp := range ev.Spans {
			if strings.HasPrefix(sp.Name, "reach.") {
				engine += float64(sp.DurUS)
			}
			if sp.Name == "reach.empty_tube" {
				lookups++
				if sp.Attrs["cache_state"] == "hit" {
					hits++
				}
			}
		}
		for _, n := range sortedKeys(parts) {
			if n != "" {
				lt.add(layerLabel(n), parts[n]/1000)
			}
		}
		for _, sp := range ev.Spans {
			if sp.Name == "server.observe" {
				observeSelf = append(observeSelf, (float64(sp.DurUS)-engine)/1000)
			}
		}
	}
	fmt.Printf("%s traced phase: %d of %d requests joined to their wide event\n", name, lt.ops, len(traced.records))
	if lt.ops == 0 {
		return fmt.Errorf("no traced request matched a wide event")
	}
	if !open {
		lt.note = "server queue_wait_seconds on a batch is the last of its 8 scene jobs; it is reported, not subtracted"
	}
	res, over := lt.print()
	rep.set("server.queue_wait_ms."+name, queue.median(), "ms")
	rep.set("server.handle_ms."+name, handle.median(), "ms")
	rep.set("client.residual_ms."+name, residual.median(), "ms")
	rep.set("sti.empty_cache_hit_ratio."+name, float64(hits)/float64(max(lookups, 1)), "ratio")
	rep.set("layers.residual_ms."+name, res, "ms")
	rep.set("trace.overhead_ratio."+name, over, "ratio")
	if open {
		// session_replay is not a gated workload (its latency moves with the
		// host beyond any usable bound), so its untraced end-to-end figures
		// are reported here, ungated.
		lat := untraced.latencies()
		fmt.Printf("%s untraced latency: %s\n", name, lat.summary("ms"))
		rep.set("session_replay.latency_p50_ms", lat.percentile(50), "ms")
		rep.set("session_replay.latency_p99_ms", lat.percentile(99), "ms")
		rep.set("monitor.observe_ms", observeSelf.median(), "ms")
		rep.set("loadgen.lag_p99_ms", lags.percentile(99), "ms")
		fmt.Printf("%s untraced generator lag: %s\n", name, lags.summary("ms"))
	}
	deg, _ := w.degenerate()
	rep.set("sti.degenerate_inputs."+name, float64(deg), "count")
	return nil
}

// layerLabel names a server span as a layer of the table.
func layerLabel(span string) string {
	switch span {
	case "server.observe":
		return "monitor.observe self (predict, TTC, DistCIPA)"
	case "server.predict":
		return "actor.PredictAll (server.predict)"
	case "server.evaluate":
		return "sti.Evaluate self (server.evaluate)"
	}
	return span
}
