package metrics

// Counter/histogram registries: gatord's counters and histograms
// accumulate here and export as deterministic JSON (sorted names, integer
// values) or Prometheus text (prom.go).
//
// Overhead contract: every method is safe on a nil receiver and does
// nothing there, without allocating. Code under instrumentation calls
// reg.Counter(...).Add(...) unconditionally; with a nil registry the whole
// chain is a couple of predictable branches.

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter; no-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down (queue depth, live sessions).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value; no-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d; no-op on a nil receiver.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with 2^(i-1) <= v < 2^i (bucket 0 counts v < 1),
// and the last bucket absorbs everything larger.
const histBuckets = 32

// Histogram accumulates an integer-valued distribution in power-of-two
// buckets — enough resolution for worklist sizes and iteration counts
// without per-observation allocation.
type Histogram struct {
	mu      sync.Mutex
	buckets [histBuckets]int64
	count   int64
	sum     int64
	max     int64
}

// Observe records one value; no-op on a nil receiver. Negative values
// count into bucket 0.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for b := v; b > 0 && i < histBuckets-1; b >>= 1 {
		i++
	}
	h.mu.Lock()
	h.buckets[i]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// HistogramSnapshot is one histogram's exported state.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Max   int64 `json:"max"`
	// Buckets lists the non-empty power-of-two buckets as [upperBound,
	// count] pairs in increasing bound order.
	Buckets [][2]int64 `json:"buckets"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum, Max: h.max}
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		// Bucket i counts v in [2^(i-1), 2^i); its exclusive upper bound
		// is 2^i.
		s.Buckets = append(s.Buckets, [2]int64{int64(1) << i, n})
	}
	return s
}

// Registry is a named collection of counters and histograms. The zero value
// is not usable; construct with NewRegistry. A nil *Registry is a valid
// disabled registry: every lookup returns nil, and nil counters/histograms
// swallow updates.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	gauges   map[string]*Gauge
	// gaugeFns are callback gauges sampled at snapshot time (queue depth,
	// live-session count — values owned by another subsystem).
	gaugeFns map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
		gauges:   map[string]*Gauge{},
		gaugeFns: map[string]func() int64{},
	}
}

// Counter returns (creating on demand) the named counter; nil on a nil
// registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns (creating on demand) the named histogram; nil on a nil
// registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Gauge returns (creating on demand) the named gauge; nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback gauge evaluated at every snapshot. It
// replaces any earlier registration under the same name; fn must be safe
// to call from any goroutine. No-op on a nil registry.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = fn
}

// Add increments a named counter: shorthand for Counter(name).Add(n).
func (r *Registry) Add(name string, n int64) { r.Counter(name).Add(n) }

// Observe records a value into a named histogram.
func (r *Registry) Observe(name string, v int64) { r.Histogram(name).Observe(v) }

// SetGauge sets a named gauge: shorthand for Gauge(name).Set(v).
func (r *Registry) SetGauge(name string, v int64) { r.Gauge(name).Set(v) }

// RegistrySnapshot is the exported state of a registry.
type RegistrySnapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot exports the registry's current state. Nil registries export
// empty maps. Callback gauges are sampled here; a static gauge and a
// callback under the same name resolve to the callback.
func (r *Registry) Snapshot() RegistrySnapshot {
	s := RegistrySnapshot{Counters: map[string]int64{}, Histograms: map[string]HistogramSnapshot{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	fns := make(map[string]func() int64, len(r.gaugeFns))
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	if len(r.gauges)+len(r.gaugeFns) > 0 {
		s.Gauges = map[string]int64{}
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, fn := range r.gaugeFns {
		fns[name] = fn
	}
	r.mu.Unlock()
	// Callbacks run outside the registry lock: they may themselves take
	// locks (queue depth, session store) that must not nest under ours.
	for name, fn := range fns {
		s.Gauges[name] = fn()
	}
	return s
}

// JSON renders the registry deterministically: encoding/json emits map
// keys in sorted order, so equal states produce byte-identical output.
func (r *Registry) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// CounterNames returns the registered counter names, sorted.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
