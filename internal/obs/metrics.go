package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 (atomic hot path).
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable int64 (atomic hot path).
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution: per-bucket atomic counters plus
// an atomic sum, exported in Prometheus cumulative-bucket form. Bucket
// bounds are upper bounds (le); an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; counts[i] = observations <= bounds[i]
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DurationBuckets are the default histogram bounds for wall-clock phase and
// write durations: roughly logarithmic from 10 µs to 100 s, covering a
// sparse-round phase at small n up to a multi-gigabyte checkpoint write.
var DurationBuckets = []float64{
	1e-5, 2.5e-5, 1e-4, 2.5e-4, 1e-3, 2.5e-3,
	1e-2, 2.5e-2, 0.1, 0.25, 1, 2.5, 10, 25, 100,
}

// Label is one metric label pair. Series within a family are keyed by
// their sorted label set.
type Label struct{ Key, Value string }

// kind discriminates a family's metric type.
type kind uint8

const (
	kindCounter kind = iota + 1
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labeled instance of a family; exactly one of c/g/h is set.
type series struct {
	labels string // rendered `{k="v",...}` form, "" for the unlabeled series
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one named metric family: a type, a help string, and its series.
type family struct {
	name   string
	help   string
	kind   kind
	bounds []float64 // histogram families only
	series map[string]*series
}

// Registry holds metric families. Registration (Counter/Gauge/Histogram) is
// get-or-create and safe for concurrent use; the returned handles are the
// lock-free hot path. Export is stable-ordered: families sorted by name,
// series by label string, so two processes registering in different orders
// produce comparable text.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry every instrumented layer registers
// into; rbb-serve's /metrics endpoint and rbb-sim's -metrics dump export it.
var Default = NewRegistry()

// Counter returns the counter series of family name with the given labels,
// creating family and series as needed. Repeated calls with the same name
// and labels return the same handle. It panics if name is invalid or
// already registered as a different metric type (a programmer error).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.getOrCreate(name, help, kindCounter, nil, labels)
	return s.c
}

// Gauge returns the gauge series of family name with the given labels (see
// Counter for the registration contract).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.getOrCreate(name, help, kindGauge, nil, labels)
	return s.g
}

// Histogram returns the histogram series of family name with the given
// bucket upper bounds (which must be sorted ascending; every series of a
// family shares the bounds of the first registration) and labels.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.getOrCreate(name, help, kindHistogram, bounds, labels)
	return s.h
}

func (r *Registry) getOrCreate(name, help string, k kind, bounds []float64, labels []Label) *series {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	key := labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		if k == kindHistogram {
			if len(bounds) == 0 {
				bounds = DurationBuckets
			}
			for i := 1; i < len(bounds); i++ {
				if bounds[i] <= bounds[i-1] {
					panic(fmt.Sprintf("obs: %s: histogram bounds not ascending", name))
				}
			}
			bounds = append([]float64(nil), bounds...)
		}
		f = &family{name: name, help: help, kind: k, bounds: bounds, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: %s registered as %s, requested as %s", name, f.kind, k))
	}
	s := f.series[key]
	if s == nil {
		s = &series{labels: key}
		switch k {
		case kindCounter:
			s.c = new(Counter)
		case kindGauge:
			s.g = new(Gauge)
		case kindHistogram:
			s.h = &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
		}
		f.series[key] = s
	}
	return s
}

// validName checks the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// labelString renders labels in sorted-key order as `{k="v",...}` ("" when
// empty). Values are escaped per the Prometheus text format.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Key))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format (backslash,
// double quote, newline).
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatFloat renders a float in the shortest round-trip form.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// withLabel merges an extra label (le) into a rendered label string.
func withLabel(labels, key, value string) string {
	pair := key + `="` + value + `"`
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

// WritePrometheus exports every family in the Prometheus text exposition
// format (version 0.0.4), families sorted by name and series by label
// string. Values are read with atomic loads while writers may be running;
// the export is a consistent-enough monotone snapshot, as scrapes are.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		r.mu.Lock()
		ss := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			ss = append(ss, s)
		}
		r.mu.Unlock()
		sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range ss {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.c.Value())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.g.Value())
			case kindHistogram:
				cum := uint64(0)
				for i, bound := range s.h.bounds {
					cum += s.h.counts[i].Load()
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, withLabel(s.labels, "le", formatFloat(bound)), cum)
				}
				cum += s.h.counts[len(s.h.bounds)].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, withLabel(s.labels, "le", "+Inf"), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, s.labels, formatFloat(s.h.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, s.labels, s.h.Count())
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}
