// Package obs is the simulator's unified observability layer: a
// dependency-free metrics registry (typed atomic counters, gauges, and
// histograms), a cycle-level event tracer with Chrome trace-event JSON
// export, and a live telemetry HTTP server (Prometheus text format,
// health, progress/ETA, pprof).
//
// Design rules:
//
//   - Hot-path friendly. Every instrument method is safe on a nil
//     receiver and does nothing, so modules instrument unconditionally
//     and pay only a predictable nil-check when observability is off.
//     When on, updates are single atomic operations (no locks, no
//     allocation).
//   - Concurrency-safe. Instruments may be shared across goroutines
//     (the fleet runner's workers all feed the same registry); exports
//     read atomically.
//   - One source of truth. Modules drive obs instruments from the same
//     code paths that feed their report-facing Stats snapshots; the
//     integration tests in the report package assert the two views are
//     numerically identical.
package obs

import (
	"sort"
	"strconv"
)

// Label is one key=value metric dimension (e.g. channel="0",
// codec="4b3s", cmd="act").
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// labelSignature renders a deterministic series key from labels, sorting
// by key so {a,b} and {b,a} are the same series.
func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return string(appendLabels(make([]byte, 0, labelsLen(ls)), ls))
}

// appendLabels appends labels (already in key order) to b as k="v" pairs
// joined by commas, values quoted as strconv.Quote does: the one label
// form behind both series signatures and stream point keys.
func appendLabels(b []byte, labels []Label) []byte {
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, l.Value)
	}
	return b
}

// labelsLen bounds appendLabels' output length when no value needs
// escaping: the size callers give its buffer.
func labelsLen(labels []Label) int {
	n := 0
	for _, l := range labels {
		n += len(l.Key) + len(l.Value) + 4 // '=', two quotes, ','
	}
	return n
}

// sortedLabels returns a sorted copy of labels.
func sortedLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}
