package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"
)

// newClient returns an HTTP client keeping one connection per server
// alive.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// post sends one op and reports whether its reply was the expected one.
func post(client *http.Client, base string, o op) error {
	resp, err := client.Post(base+o.path, "application/json", bytes.NewReader(o.body))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %.200s", o.path, resp.Status, body)
	}
	if !bytes.Equal(body, o.want) {
		return fmt.Errorf("%s: reply differs from the expected body: %.200s", o.path, body)
	}
	return nil
}

// Slices of the measured phase: one client sends rmtd ops for rmtdSlice,
// then reference ops for refSlice, and so on, so that both servers see the
// host at nearly the same moments. Without a reference the phase is one
// run of rmtd ops.
const (
	rmtdSlice = 300 * time.Millisecond
	refSlice  = 100 * time.Millisecond
)

// side is what one server did in one slice: the ops it completed, the
// time it was driven, and each op's latency.
type side struct {
	ok, failed int
	busy       time.Duration
	lat        []float64 // µs
}

func (s *side) rate() float64 { return float64(s.ok) / s.busy.Seconds() }

// loopResult is one closed-loop phase, pair by pair.
type loopResult struct {
	rmtd, ref []side
	ok        int
	failed    int
	elapsed   time.Duration
	firstErr  error
	refErr    error
}

// cursor walks a server's ops in sequence, wrapping.
type cursor struct {
	base string
	ops  []op
	next int
}

// slice sends ops from c, one at a time, each only once the previous reply
// has arrived and been checked, until d has passed; it adds them to s and
// returns the first failure.
func (c *cursor) slice(client *http.Client, d time.Duration, s *side) error {
	var first error
	start := time.Now()
	for {
		o := c.ops[c.next%len(c.ops)]
		c.next++
		t0 := time.Now()
		err := post(client, c.base, o)
		t1 := time.Now()
		s.lat = append(s.lat, float64(t1.Sub(t0).Nanoseconds())/1e3)
		if err != nil {
			s.failed++
			if first == nil {
				first = err
			}
		} else {
			s.ok++
		}
		if t1.Sub(start) >= d {
			s.busy = t1.Sub(start)
			return first
		}
	}
}

// drive runs one closed-loop client for about dur, in pairs of slices
// that alternate rmtd with the reference server (or rmtd alone when ref is
// nil), and returns what each server did in each pair.
func drive(client *http.Client, rmtd, ref *cursor, dur time.Duration) loopResult {
	pair := rmtdSlice
	if ref != nil {
		pair += refSlice
	}
	pairs := max(1, int(dur/pair))
	res := loopResult{rmtd: make([]side, pairs), ref: make([]side, pairs)}
	start := time.Now()
	for p := 0; p < pairs; p++ {
		if err := rmtd.slice(client, rmtdSlice, &res.rmtd[p]); err != nil && res.firstErr == nil {
			res.firstErr = err
		}
		if ref == nil {
			continue
		}
		if err := ref.slice(client, refSlice, &res.ref[p]); err != nil && res.refErr == nil {
			res.refErr = err
		}
	}
	res.elapsed = time.Since(start)
	for _, s := range res.rmtd {
		res.ok += s.ok
		res.failed += s.failed
	}
	return res
}

// stats returns, per pair, the rate of correct replies and the median
// latency in µs.
func stats(sides []side) (rate, p50 []float64) {
	for _, s := range sides {
		rate = append(rate, s.rate())
		p50 = append(p50, median(s.lat))
	}
	return rate, p50
}

// pooled returns every pair's latencies together, sorted.
func pooled(sides []side) []float64 {
	var lat []float64
	for _, s := range sides {
		lat = append(lat, s.lat...)
	}
	sort.Float64s(lat)
	return lat
}

// quotients returns a[i] / b[i].
func quotients(a, b []float64) []float64 {
	q := make([]float64, len(a))
	for i := range a {
		q[i] = a[i] / b[i]
	}
	return q
}

// warmUp sends ops once each, in order, on one connection.
func warmUp(client *http.Client, base string, ops []op) error {
	for _, o := range ops {
		if err := post(client, base, o); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// percentile returns the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// windowPeaks returns the largest RSS sampled in each window.
func windowPeaks(points []rssPoint, dur time.Duration, n int) []float64 {
	peaks := make([]float64, n)
	for _, p := range points {
		w := windowOf(p.at, dur, n)
		peaks[w] = max(peaks[w], p.mb)
	}
	return peaks
}

// windowOf returns which of n equal windows over dur holds time at; times
// past dur fall into the last window.
func windowOf(at, dur time.Duration, n int) int {
	return min(int(int64(at)*int64(n)/int64(dur)), n-1)
}
