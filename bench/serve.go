package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gator/internal/metrics"
	"gator/internal/server"
)

// mixSlots is one client cycle of the serve mix: 4 cold analyses, 2
// repeats and 4 patches, shuffled afresh each cycle by the client's seeded
// generator. The ratio is an assumed synthetic mix, not recorded traffic;
// the per-class latencies serverMetrics reports do not depend on it.
var mixSlots = [10]opKind{opCold, opCold, opCold, opCold, opRepeat, opRepeat, opPatch, opPatch, opPatch, opPatch}

// historyLen is how many of its latest cold requests a client may repeat.
const historyLen = 16

// rig is an in-process gatord on loopback plus the closed-loop clients
// that drive it. Each client has its own connection and its own warm
// session on the patch app.
type rig struct {
	srv     *server.Server
	hs      *http.Server
	served  chan struct{}
	base    string
	inputs  []input
	patches [2][]byte
	clients []*client
	// salt numbers cold requests; each carries its number in saltFile, so
	// no two cold requests share a result cache key.
	salt atomic.Int64
}

// saltFile is the source file, holding one comment, that a cold request
// adds to its app. It changes neither the analysis nor its SARIF. Salting
// the app's own file instead would leave a fresh parse of the whole app in
// the daemon's parse cache (4096 entries) on every cold request, growing
// its heap by about 1 MB a request for the whole window; an extra file
// keeps the heap's growth to the result cache's bounded bytes. The app's
// own file is in the parse cache from the warm-up, as an unchanged file is
// in a daemon in use.
const saltFile = "bench-salt.alite"

type client struct {
	id      int
	hc      *http.Client
	rng     *rand.Rand
	order   []int // the client's seeded order of the inputs for cold requests
	next    int
	history []sent
	session string
	variant int // the edit the next patch applies
}

// newClient seeds client id's generator, which orders its cold requests
// and shuffles its mix cycles.
func newClient(id int, seed int64, inputs int) *client {
	rng := rand.New(rand.NewSource(seed*7919 + int64(id)))
	return &client{
		id: id,
		// One connection per client: the mix measures 2 callers, not a
		// connection pool.
		hc:    &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		rng:   rng,
		order: rng.Perm(inputs),
	}
}

// sent is a cold request body kept for repeats.
type sent struct {
	input int
	body  []byte
}

// serveClients is the number of closed-loop clients, one per core of the
// 2-core box the benchmark was sized on, matching the daemon's 2 workers.
const serveClients = 2

// startRig starts gatord with 2 workers and every other setting at its
// default, and opens and warms the clients.
func startRig(inputs []input, seed int64) (*rig, error) {
	srv, err := server.New(server.Config{Workers: 2})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	r := &rig{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		inputs: inputs,
	}
	go func() {
		r.hs.Serve(ln)
		close(r.served)
	}()
	if err := r.open(seed); err != nil {
		r.stop()
		return nil, err
	}
	return r, nil
}

// open opens one session per client, then warms every client with one
// cold request per input and one patch of each edit.
func (r *rig) open(seed int64) error {
	p, err := newPatchApp()
	if err != nil {
		return err
	}
	for v := range r.patches {
		if r.patches[v], err = json.Marshal(server.PatchRequest{
			Sources:    map[string]string{"act1.alite": p.edits[v]},
			ReportSpec: server.ReportSpec{Report: "tuples"},
		}); err != nil {
			return err
		}
	}
	open, err := json.Marshal(server.AnalyzeRequest{Sources: p.Sources, Layouts: p.Layouts, ReportSpec: server.ReportSpec{Report: "tuples"}})
	if err != nil {
		return err
	}
	for id := 0; id < serveClients; id++ {
		c := newClient(id, seed, len(r.inputs))
		r.clients = append(r.clients, c)
		resp, err := c.send(http.MethodPost, r.base+"/v1/sessions", open)
		if err != nil {
			return fmt.Errorf("open session: %w", err)
		}
		c.session = resp.SessionID
	}
	return r.each(func(c *client) error {
		for range r.inputs {
			if s := r.do(c, opCold); s.err != nil {
				return fmt.Errorf("warm-up: %w", s.err)
			}
		}
		for range r.patches {
			if s := r.do(c, opPatch); s.err != nil {
				return fmt.Errorf("warm-up: %w", s.err)
			}
		}
		return nil
	})
}

// each runs f for every client concurrently and returns the first error.
func (r *rig) each(f func(*client) error) error {
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(c)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *rig) stop() {
	for _, c := range r.clients {
		c.hc.CloseIdleConnections()
	}
	r.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r.hs.Shutdown(ctx)
	<-r.served
}

// roundCycles is how many mix cycles each client runs in a round: about
// 400 ms on the 2-core box, so the calibration before each round, which
// first collects the daemon's heap of about 50 MB, takes about an eighth
// of the window.
const roundCycles = 2

// round runs roundCycles mix cycles on every client at once, each client
// as a closed loop, and returns the samples of all clients once every
// client has finished.
func (r *rig) round() []sample {
	per := make([][]sample, len(r.clients))
	r.each(func(c *client) error {
		for range roundCycles {
			for _, slot := range c.rng.Perm(len(mixSlots)) {
				per[c.id] = append(per[c.id], r.do(c, mixSlots[slot]))
			}
		}
		return nil
	})
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out
}

// mix runs rounds until the deadline, at least one, and returns their
// samples.
func (r *rig) mix(deadline time.Time) []sample {
	var out []sample
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		out = append(out, r.round()...)
	}
	return out
}

// serveCalUnits is how many units each of the calThreads calibration
// threads runs before each serve round.
const serveCalUnits = 2

// runWindow runs rounds of the mix for d, with the calibration units
// alone before each. Its heap allocation includes the daemon's.
func (r *rig) runWindow(d time.Duration, cal *calibration) window {
	w := window{perRound: serveCalUnits * calThreads}
	deadline := time.Now().Add(d)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		w.cal = cal.measure(serveCalUnits, w.cal)
		a0 := heapAllocs()
		start := time.Now()
		samples := r.round()
		w.busy = append(w.busy, time.Since(start))
		w.alloc += heapAllocs() - a0
		for i := range samples {
			samples[i].round = n
		}
		w.samples = append(w.samples, samples...)
	}
	return w
}

// do sends one request of the given kind for client c and records it.
func (r *rig) do(c *client, kind opKind) sample {
	s := sample{kind: kind, client: c.id}
	method, url := http.MethodPost, r.base+"/v1/analyze"
	var body []byte
	switch kind {
	case opCold:
		s.ref.input = c.order[c.next%len(c.order)]
		c.next++
		in := r.inputs[s.ref.input]
		salted := make(map[string]string, len(in.Sources)+1)
		for name, src := range in.Sources {
			salted[name] = src
		}
		salted[saltFile] = fmt.Sprintf("// req %d\n", r.salt.Add(1))
		var err error
		if body, err = json.Marshal(server.AnalyzeRequest{
			Sources: salted, Layouts: in.Layouts,
			ReportSpec: server.ReportSpec{Report: "sarif"},
		}); err != nil {
			s.err = err
			return s
		}
		c.history = append(c.history, sent{s.ref.input, body})
		if len(c.history) > historyLen {
			c.history = c.history[1:]
		}
	case opRepeat:
		h := c.history[c.rng.Intn(len(c.history))]
		s.ref.input, body = h.input, h.body
	case opPatch:
		s.ref = refKey{input: -1, variant: c.variant}
		c.variant ^= 1
		method, url, body = http.MethodPatch, r.base+"/v1/sessions/"+c.session, r.patches[s.ref.variant]
	}
	s.start = time.Now()
	resp, err := c.send(method, url, body)
	s.lat = time.Since(s.start)
	switch {
	case err != nil:
		s.err = err
	case kind == opPatch && (resp.Incremental == nil || resp.Incremental.Mode != "warm"):
		s.err = fmt.Errorf("patch fell off the warm path: %+v", resp.Incremental)
	default:
		s.sum = sha256.Sum256([]byte(resp.Output))
		if resp.Incremental != nil {
			s.retained, s.retracted = resp.Incremental.Retained, resp.Incremental.Retracted
		}
	}
	return s
}

// send makes one round trip; a non-2xx status is an error.
func (c *client) send(method, url string, body []byte) (*server.AnalyzeResponse, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, url, resp.StatusCode, data)
	}
	var out server.AnalyzeResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	return &out, nil
}

// snapshot reads the daemon's /metrics.json.
func (r *rig) snapshot() (metrics.RegistrySnapshot, error) {
	var snap metrics.RegistrySnapshot
	resp, err := http.Get(r.base + "/metrics.json")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /metrics.json: status %d", resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// serverMetrics computes the daemon's per-layer metrics from two
// /metrics.json snapshots taken around the mix, and the client-side ones
// from the mix's samples: among them the latency percentiles of cold and
// patch requests, which a change to one request class moves whatever the
// mix's ratio.
func serverMetrics(before, after metrics.RegistrySnapshot, samples []sample) map[string]float64 {
	count := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	hist := func(names ...string) (sum, n float64) {
		for _, name := range names {
			sum += float64(after.Histograms[name].Sum - before.Histograms[name].Sum)
			n += float64(after.Histograms[name].Count - before.Histograms[name].Count)
		}
		return sum, n
	}
	meanMs := func(names ...string) float64 {
		sum, n := hist(names...)
		if n == 0 {
			return 0
		}
		return sum / n / 1000
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	stage := func(s string) string { return metrics.LabelName("stage_duration_us", "stage", s) }
	httpMs := meanMs(
		metrics.LabelName("http_request_duration_us", "route", "/v1/analyze"),
		metrics.LabelName("http_request_duration_us", "route", "/v1/sessions/{id}"))
	var clientMs []float64
	classMs := map[opKind][]float64{}
	classPct := func(k opKind, p float64) float64 {
		sort.Float64s(classMs[k])
		return percentile(classMs[k], p)
	}
	var retained, retracted, patches float64
	for _, s := range samples {
		clientMs = append(clientMs, ms(s.lat))
		classMs[s.kind] = append(classMs[s.kind], ms(s.lat))
		if s.kind == opPatch {
			patches++
			retained += float64(s.retained)
			retracted += float64(s.retracted)
		}
	}
	hits, misses := count("server.cache.hits"), count("server.cache.misses")
	return map[string]float64{
		"server.queue_ms":            meanMs(stage("queue")),
		"server.parse_ms":            meanMs(stage("parse")),
		"server.solve_ms":            meanMs(stage("solve")),
		"server.render_ms":           meanMs(stage("render")),
		"server.http_ms":             httpMs,
		"client.overhead_ms":         mean(clientMs) - httpMs,
		"server.jobs.rejected_busy":  count("server.jobs.rejected_busy"),
		"cache.result_hit_ratio":     ratio(hits, hits+misses),
		"server.sessions.warm_ratio": ratio(count("server.sessions.warm"), count("server.sessions.patch_requests")),
		"incr.retained":              ratio(retained, patches),
		"incr.retracted":             ratio(retracted, patches),
		"serve.cold_ms_p50":          classPct(opCold, 0.50),
		"serve.cold_ms_p90":          classPct(opCold, 0.90),
		"serve.patch_ms_p50":         classPct(opPatch, 0.50),
		"serve.patch_ms_p90":         classPct(opPatch, 0.90),
	}
}
