package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/scene"
	"repro/internal/telemetry"
)

// Session-replay mode measures the serving path the warm-start engine was
// built for: each worker opens a session and streams a recorded
// stop-and-go trace through /v1/sessions/{id}/observe tick by tick, with
// strictly increasing timestamps, then closes the session and starts over.
// Against a warm-started server every tick after the first revalidates the
// previous expansion; against a cold server every tick recomputes. The
// p50 gap between a -warm=true and a -warm=false run is the engine's
// measured win (DESIGN.md §11).

type replayOpts struct {
	base        string
	bodies      [][]byte // one observe body per tick, Time pre-stamped
	actors      int
	concurrency int
	observes    int64 // total observe budget across all workers
	duration    time.Duration
	timeout     time.Duration
	minRate     float64
	warm        bool
	selfServe   bool
	outDir      string
}

// replayResults is the session-replay block of a kind-"session-replay"
// snapshot.
type replayResults struct {
	Workers     int  `json:"workers"`
	TicksPerRun int  `json:"ticks_per_run"`
	Actors      int  `json:"actors"`
	Sessions    int  `json:"sessions"`
	Warm        bool `json:"warm"`
}

// replayBodies renders the canonical stop-and-go session trace to observe
// request bodies, one per tick, timestamps already strictly increasing.
func replayBodies(actors, ticks int) ([][]byte, error) {
	m, trace := scenario.StopAndGoSession(actors, ticks)
	bodies := make([][]byte, len(trace))
	for t, tick := range trace {
		sc, err := scene.FromParts(m, tick.Ego, tick.Actors, float64(t)*0.1)
		if err != nil {
			return nil, err
		}
		if bodies[t], err = scene.Encode(sc); err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

func runSessionReplay(o replayOpts) error {
	client := &http.Client{
		Timeout: o.timeout,
		Transport: &http.Transport{
			MaxIdleConns:        o.concurrency * 2,
			MaxIdleConnsPerHost: o.concurrency * 2,
		},
	}

	deadline := time.Time{}
	total := o.observes
	if o.duration > 0 {
		deadline = time.Now().Add(o.duration)
		total = 1 << 62
	}

	var next, ok, rejected, errs, sessions int64
	done := func() bool {
		if atomic.AddInt64(&next, 1)-1 >= total {
			return true
		}
		return !deadline.IsZero() && time.Now().After(deadline)
	}

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < o.concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				id, _, err := fleetCreateSession(client, o.base)
				if err != nil {
					fmt.Fprintf(os.Stderr, "loadgen: session create: %v\n", err)
					atomic.AddInt64(&errs, 1)
					return
				}
				atomic.AddInt64(&sessions, 1)
				finished := false
				for _, body := range o.bodies {
					if done() {
						finished = true
						break
					}
					status, _, err := fleetPost(client, o.base+"/v1/sessions/"+id+"/observe", body)
					switch {
					case err != nil:
						telErrors.Inc()
						atomic.AddInt64(&errs, 1)
						fmt.Fprintf(os.Stderr, "loadgen: observe error: %v\n", err)
					case status/100 == 2:
						telOK.Inc()
						atomic.AddInt64(&ok, 1)
					case status == http.StatusTooManyRequests:
						telRejected.Inc()
						atomic.AddInt64(&rejected, 1)
					default:
						telErrors.Inc()
						atomic.AddInt64(&errs, 1)
						fmt.Fprintf(os.Stderr, "loadgen: observe status %d\n", status)
					}
				}
				replayDeleteSession(client, o.base, id)
				if finished {
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	snap := telemetry.Default().Snapshot()
	lat := snap.Histograms["loadgen.request.seconds"]
	rate := float64(ok) / elapsed.Seconds()
	mode := "cold"
	if o.warm {
		mode = "warm"
	}
	fmt.Printf("loadgen[session-replay %s]: %d observes over %d sessions (%d ticks/session, %d actors) in %s\n",
		mode, ok+rejected+errs, sessions, len(o.bodies), o.actors, elapsed.Round(time.Millisecond))
	fmt.Printf("  ok %d   429 %d   errors %d\n", ok, rejected, errs)
	fmt.Printf("  latency p50 %s  p95 %s  p99 %s  max %s\n",
		fmtSec(lat.P50), fmtSec(lat.P95), fmtSec(lat.P99), fmtSec(lat.Max))
	fmt.Printf("  throughput %.0f observes/sec\n", rate)

	if o.outDir != "" {
		var rep report
		rep.Kind = "session-replay"
		rep.Date = time.Now().Format(time.RFC3339)
		rep.GoVersion = runtime.Version()
		rep.GOOS, rep.GOARCH, rep.NumCPU = runtime.GOOS, runtime.GOARCH, runtime.NumCPU()
		rep.Config.Typology = "stop-and-go-session"
		rep.Config.Scenes = len(o.bodies)
		rep.Config.Requests = int(ok + rejected + errs)
		rep.Config.Concurrency = o.concurrency
		rep.Config.Batch = 1
		rep.Config.SelfServe = o.selfServe
		rep.Results.OK = ok
		rep.Results.Rejected = rejected
		rep.Results.Errors = errs
		rep.Results.ScenesScored = ok
		rep.Results.Seconds = elapsed.Seconds()
		rep.Results.ScenesPerSec = rate
		rep.Replay = &replayResults{
			Workers:     o.concurrency,
			TicksPerRun: len(o.bodies),
			Actors:      o.actors,
			Sessions:    int(sessions),
			Warm:        o.warm,
		}
		rep.Telemetry = snap
		path := filepath.Join(o.outDir, "BENCH_serve_"+time.Now().UTC().Format("2006-01-02T150405Z")+".json")
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}

	if errs > 0 {
		return fmt.Errorf("%d observe(s) failed with errors or unexpected statuses", errs)
	}
	if ok == 0 {
		return fmt.Errorf("no observe succeeded (%d rejected)", rejected)
	}
	if o.minRate > 0 && rate < o.minRate {
		return fmt.Errorf("throughput %.0f observes/sec below required %.0f", rate, o.minRate)
	}
	return nil
}

// replayDeleteSession closes a session so the server can recycle its
// warm-start state; best-effort (a leaked session only costs memory until
// the run's server goes away).
func replayDeleteSession(client *http.Client, base, id string) {
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+id, nil)
	if err != nil {
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		return
	}
	resp.Body.Close()
}
