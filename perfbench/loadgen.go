package main

import (
	"runtime"
	"sync"
	"time"
)

// spinWindow is how long before a request's due time the dispatcher
// stops sleeping and yields in a loop instead. Go timers round short
// sleeps up to the next millisecond when the process is idle, which on
// its own would make the generator a millisecond late on most sends.
const spinWindow = 1500 * time.Microsecond

// prepLead is how long before its due time a request is built, so that
// building it (a US objective takes a fraction of a millisecond) runs
// while the server is idle rather than beside the previous request.
const prepLead = 2 * time.Millisecond

// waitUntil sleeps until spinWindow before t, then yields until t.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	spinUntil(t)
}

func spinUntil(t time.Time) {
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// openLoop is the benchmark's load generator layer. It sends n requests
// on a fixed schedule, request i due at at(i) after the start, whatever
// happened to earlier ones. One dispatcher builds each request with prep
// (when not nil) just before its due time and hands it to one of
// `senders` goroutines; when every sender is busy the hand-off waits,
// the wait shows as lag, and the request's latency still runs from its
// due time. send reports whether the request succeeded. Requests are
// traced as "loadgen.request" spans on the operations tr traces.
func openLoop(n int, at func(i int) time.Duration, senders int, tr *tracer,
	prep func(i int) any, send func(i int, p any) bool) []sample {
	type job struct {
		i   int
		due time.Time
		p   any
	}
	out := make([]sample, n)
	work := make(chan job)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				t0 := time.Now()
				ot := tr.forOp(int64(j.i))
				id := ot.begin("loadgen.request", int64(j.i), -1)
				ok := send(j.i, j.p)
				ot.end(id)
				out[j.i] = sample{lat: time.Since(j.due), lag: t0.Sub(j.due), ok: ok, traced: ot != nil}
			}
		}()
	}
	start := time.Now().Add(2 * time.Millisecond)
	for i := 0; i < n; i++ {
		due := start.Add(at(i))
		var p any
		if prep != nil {
			waitUntil(due.Add(-prepLead))
			p = prep(i)
			spinUntil(due)
		} else {
			waitUntil(due)
		}
		work <- job{i: i, due: due, p: p}
	}
	close(work)
	wg.Wait()
	return out
}

// every spaces requests evenly at rate per second.
func every(rate float64) func(i int) time.Duration {
	return func(i int) time.Duration { return time.Duration(float64(i) / rate * float64(time.Second)) }
}
