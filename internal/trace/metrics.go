package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one typed metric label: a key/value pair such as
// tenant="alice". The value is arbitrary data (a tenant name, a span
// name); only an exposition writer renders and escapes it.
type Label struct {
	Key   string
	Value string
}

// Key identifies one metric series: a metric name and, for a family
// partitioned by a dimension (tenant, span), that dimension's label.
// The zero Label marks an unlabeled series. Key is comparable, so it
// keys the registry and its Snapshot's labeled series directly.
type Key struct {
	Name  string
	Label Label
}

// seriesKey builds the Key for a registry write; a series carries at
// most one label.
func seriesKey(name string, label []Label) Key {
	switch len(label) {
	case 0:
		return Key{Name: name}
	case 1:
		return Key{Name: name, Label: label[0]}
	}
	panic("trace: a metric series carries at most one label")
}

// String renders the key for the text and JSON views: the bare name,
// or name{key="value"} with the value Go-quoted.
func (k Key) String() string {
	if k.Label == (Label{}) {
		return k.Name
	}
	return k.Name + "{" + k.Label.Key + "=" + strconv.Quote(k.Label.Value) + "}"
}

// MarshalText implements encoding.TextMarshaler, so the labeled
// series maps serialise as JSON objects keyed by String.
func (k Key) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Bucket is one log2 histogram bucket: Count observations v with
// 2^(K-1) < v <= 2^K. K may be negative.
type Bucket struct {
	K     int   `json:"k"`
	Count int64 `json:"count"`
}

// Le is the bucket's inclusive upper bound, 2^K.
func (b Bucket) Le() float64 { return math.Exp2(float64(b.K)) }

// Log2Bucket returns the index k of the log2 bucket holding v
// (2^(k-1) < v <= 2^k), clamped to [lo, hi]; v <= 0 lands in lo. The
// metrics registry floors at 0 (every v <= 1 shares bucket 0); the
// calibration auditor clamps drift ratios to [-6, 6].
func Log2Bucket(v float64, lo, hi int) int {
	if !(v > 0) {
		return lo
	}
	return min(max(int(math.Ceil(math.Log2(v))), lo), hi)
}

// SortBuckets converts sparse bucket counts (index → count) to
// ascending-index order.
func SortBuckets(m map[int]int64) []Bucket {
	out := make([]Bucket, 0, len(m))
	for k, n := range m {
		out = append(out, Bucket{K: k, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
	return out
}

// Registry is a lightweight metrics registry aggregating observability
// counters across queries of one session: monotonic counters, gauges
// (last value wins) and log2-bucketed histograms. It is safe for
// concurrent use; the engine only touches it once per query (at query
// end), off the per-tuple hot path. Every write names its series by a
// metric name plus an optional Label (see Key).
type Registry struct {
	mu       sync.Mutex
	counters map[Key]int64
	gauges   map[Key]float64
	hists    map[Key]*histData
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[Key]int64),
		gauges:   make(map[Key]float64),
		hists:    make(map[Key]*histData),
	}
}

// Add increments a counter by v.
func (r *Registry) Add(name string, v int64, label ...Label) {
	r.Update(func(t Tx) { t.Add(name, v, label...) })
}

// SetGauge records a gauge's current value.
func (r *Registry) SetGauge(name string, v float64, label ...Label) {
	r.Update(func(t Tx) { t.SetGauge(name, v, label...) })
}

// AddGauge moves a gauge by delta (useful for live occupancy gauges
// such as queries_in_flight, incremented on entry and decremented on
// exit).
func (r *Registry) AddGauge(name string, delta float64, label ...Label) {
	r.Update(func(t Tx) { t.AddGauge(name, delta, label...) })
}

// Observe adds one observation to a histogram.
func (r *Registry) Observe(name string, v float64, label ...Label) {
	r.Update(func(t Tx) { t.Observe(name, v, label...) })
}

func (r *Registry) observeLocked(k Key, v float64) {
	h := r.hists[k]
	if h == nil {
		h = &histData{min: math.Inf(1), max: math.Inf(-1), buckets: make(map[int]int64)}
		r.hists[k] = h
	}
	h.observe(v)
}

// Tx mutates a registry inside one Update call. All writes issued
// through a Tx land under a single lock acquisition, so a concurrent
// Snapshot sees either none or all of them.
type Tx struct {
	r *Registry
}

// Add increments a counter by v.
func (t Tx) Add(name string, v int64, label ...Label) { t.r.counters[seriesKey(name, label)] += v }

// SetGauge records a gauge's current value.
func (t Tx) SetGauge(name string, v float64, label ...Label) {
	t.r.gauges[seriesKey(name, label)] = v
}

// AddGauge moves a gauge by delta.
func (t Tx) AddGauge(name string, delta float64, label ...Label) {
	t.r.gauges[seriesKey(name, label)] += delta
}

// Observe adds one observation to a histogram.
func (t Tx) Observe(name string, v float64, label ...Label) {
	t.r.observeLocked(seriesKey(name, label), v)
}

// Update applies fn's writes as one atomic batch. Individual Add/
// SetGauge/Observe calls are safe concurrently but each is its own
// critical section; related metrics written at a query boundary (e.g. a
// counter and its histogram) must go through Update, or a concurrent
// Snapshot can observe a torn pair — one updated, the other not. fn
// must not call back into the registry's locking methods.
func (r *Registry) Update(fn func(Tx)) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(Tx{r})
}

// histData accumulates one histogram: moments plus log2 buckets
// (Log2Bucket floored at 0, so bucket 0 counts every v <= 1, including
// zero and negatives).
type histData struct {
	count    int64
	sum      float64
	min, max float64
	buckets  map[int]int64
}

func (h *histData) observe(v float64) {
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.buckets[Log2Bucket(v, 0, math.MaxInt)]++
}

// HistogramStat is a histogram's snapshot.
type HistogramStat struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	// Buckets lists the non-empty log2 buckets in ascending order.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a Registry, serialisable as a
// struct or JSON. Unlabeled series are keyed by metric name; series
// partitioned by a label live in Labeled, keyed by name and typed
// label. Map keys serialise sorted (encoding/json's map behaviour), so
// snapshots of equal state are byte-identical.
type Snapshot struct {
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]float64       `json:"gauges"`
	Histograms map[string]HistogramStat `json:"histograms"`
	Labeled    LabeledSeries            `json:"labeled"`
}

// LabeledSeries holds a snapshot's labeled series.
type LabeledSeries struct {
	Counters   map[Key]int64         `json:"counters,omitempty"`
	Gauges     map[Key]float64       `json:"gauges,omitempty"`
	Histograms map[Key]HistogramStat `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state. Every map is non-nil.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramStat),
		Labeled: LabeledSeries{
			Counters:   make(map[Key]int64),
			Gauges:     make(map[Key]float64),
			Histograms: make(map[Key]HistogramStat),
		},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range r.counters {
		put(s.Counters, s.Labeled.Counters, k, v)
	}
	for k, v := range r.gauges {
		put(s.Gauges, s.Labeled.Gauges, k, v)
	}
	for k, h := range r.hists {
		hs := HistogramStat{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
		if h.count > 0 {
			hs.Mean = h.sum / float64(h.count)
		}
		if len(h.buckets) > 0 {
			hs.Buckets = SortBuckets(h.buckets)
		}
		put(s.Histograms, s.Labeled.Histograms, k, hs)
	}
	return s
}

// put files a series under its name when unlabeled, under its Key
// otherwise.
func put[V any](plain map[string]V, labeled map[Key]V, k Key, v V) {
	if k.Label == (Label{}) {
		plain[k.Name] = v
	} else {
		labeled[k] = v
	}
}

// Reset clears all metrics.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters = make(map[Key]int64)
	r.gauges = make(map[Key]float64)
	r.hists = make(map[Key]*histData)
	r.mu.Unlock()
}

// JSON renders the snapshot as indented, deterministic JSON.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// String renders the snapshot as sorted text lines.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, c := range Samples(s.Counters, s.Labeled.Counters) {
		fmt.Fprintf(&b, "counter   %-28s %d\n", c.Key, c.Value)
	}
	for _, g := range Samples(s.Gauges, s.Labeled.Gauges) {
		fmt.Fprintf(&b, "gauge     %-28s %g\n", g.Key, g.Value)
	}
	for _, h := range Samples(s.Histograms, s.Labeled.Histograms) {
		fmt.Fprintf(&b, "histogram %-28s count=%d mean=%.3g min=%.3g max=%.3g\n",
			h.Key, h.Value.Count, h.Value.Mean, h.Value.Min, h.Value.Max)
	}
	return b.String()
}

// Sample is one series of a snapshot: its key and value.
type Sample[V any] struct {
	Key   Key
	Value V
}

// Samples lists one kind's series, unlabeled and labeled together,
// ordered by name, then label (unlabeled first), so every rendering of
// equal state is identical.
func Samples[V any](plain map[string]V, labeled map[Key]V) []Sample[V] {
	out := make([]Sample[V], 0, len(plain)+len(labeled))
	for name, v := range plain {
		out = append(out, Sample[V]{Key{Name: name}, v})
	}
	for k, v := range labeled {
		out = append(out, Sample[V]{k, v})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Label.Key != b.Label.Key {
			return a.Label.Key < b.Label.Key
		}
		return a.Label.Value < b.Label.Value
	})
	return out
}
