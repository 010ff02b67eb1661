package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanBudget caps the spans kept in memory for the span file and the
// self-time table. Per-name totals, which the per-layer metrics use, keep
// counting past it.
const spanBudget = 150_000

// spanName indexes spanNames. Spans hold no pointers, so the kept spans
// cost the garbage collector nothing to scan.
type spanName uint8

// The layer calls the traced runs time. A span's layer is its name's
// prefix: the package whose call it times.
const (
	sShardRequest spanName = iota
	sShardDecode
	sShardEncode
	sHarnessReduce
	sGenSystem
	sSimRun
	sSimRecycle
	sMetricsAdd
	sMetricsMerge
	sRtsjvmBuild
	sCoreBuild
	sExecRun
	sExecShutdown
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"shard.request", "shard.decode", "shard.encode", "harness.reduce",
	"gen.system", "sim.run", "sim.recycle", "metrics.add", "metrics.merge",
	"rtsjvm.build", "core.build", "exec.run", "exec.shutdown",
}

func (n spanName) String() string { return spanNames[n] }

func (n spanName) layer() string {
	l, _, _ := strings.Cut(spanNames[n], ".")
	return l
}

// epoch anchors span times; now reads the monotonic clock against it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// span is one timed call into a layer, made from this package. Times are
// nanoseconds since epoch.
type span struct {
	id, parent int64 // parent 0: no parent
	rid        int64 // request id, shared by one request's spans
	start, end int64
	name       spanName
}

// total is the summed duration and count of one span name.
type total struct {
	n   int64
	dur time.Duration
}

// recorder keeps the spans of a traced run in memory until it ends.
type recorder struct {
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
	totals [numSpanNames]total
	// dropped counts spans summed into totals but not kept; once one batch
	// is dropped, every later one is too, so kept requests stay whole.
	dropped int64
}

// newID returns a fresh span id for a span that others name as parent.
// Spans added with id 0 get one in add. Ids at or above 1<<40 are derived
// from request ids (requestSpanID).
func (r *recorder) newID() int64 { return r.ids.Add(1) }

// requestSpanID derives the id of a request-level span from its request
// id, so both ends of a shard session can name the same parent.
func requestSpanID(rid int64, slot int64) int64 { return 1<<40 + rid*8 + slot }

// add records one request's spans: all of them are kept, or none once the
// budget is spent; the totals always count them.
func (r *recorder) add(batch ...span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range batch {
		t := &r.totals[s.name]
		t.n++
		t.dur += time.Duration(s.end - s.start)
	}
	if r.dropped > 0 || len(r.spans)+len(batch) > spanBudget {
		r.dropped += int64(len(batch))
		return
	}
	for _, s := range batch {
		if s.id == 0 {
			s.id = r.ids.Add(1)
		}
		r.spans = append(r.spans, s)
	}
}

// total returns the summed duration and count of the named spans.
func (r *recorder) total(name spanName) total {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.totals[name]
}

// selfTimes returns each kept span's self time: its duration minus the
// part of it that its children cover.
func (r *recorder) selfTimes() map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range r.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(r.spans))
	for _, s := range r.spans {
		self[s.id] = time.Duration(s.end - s.start - covered(s, children[s.id]))
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's. Children may overlap when parallel workers ran them.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var sum int64
	curS, curE := parent.start, parent.start
	for _, k := range kids {
		s, e := max(k.start, parent.start), min(k.end, parent.end)
		if e <= s {
			continue
		}
		if s > curE {
			sum += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return sum + curE - curS
}

// layerShares sums kept spans' self time by layer and returns each layer's
// share of the total.
func (r *recorder) layerShares() map[string]float64 {
	self := r.selfTimes()
	by := map[string]time.Duration{}
	var all time.Duration
	for _, s := range r.spans {
		by[s.name.layer()] += self[s.id]
		all += self[s.id]
	}
	out := map[string]float64{}
	for l, d := range by {
		if all > 0 {
			out[l] = float64(d) / float64(all)
		}
	}
	return out
}

// selfTable renders the per-name self-time table of the kept spans.
func (r *recorder) selfTable() []string {
	self := r.selfTimes()
	type row struct {
		name      spanName
		n         int
		dur, self time.Duration
	}
	var rows [numSpanNames]row
	var all time.Duration
	for _, s := range r.spans {
		rw := &rows[s.name]
		rw.name = s.name
		rw.n++
		rw.dur += time.Duration(s.end - s.start)
		rw.self += self[s.id]
		all += self[s.id]
	}
	list := rows[:]
	sort.SliceStable(list, func(i, j int) bool { return list[i].self > list[j].self })
	out := []string{fmt.Sprintf("  span self time (%d spans kept, %d beyond the budget):", len(r.spans), r.dropped),
		fmt.Sprintf("    %-36s %9s %12s %12s %7s", "span", "count", "total_ms", "self_ms", "self%")}
	for _, rw := range list {
		if rw.n == 0 {
			continue
		}
		share := 0.0
		if all > 0 {
			share = 100 * float64(rw.self) / float64(all)
		}
		out = append(out, fmt.Sprintf("    %-36s %9d %12.3f %12.3f %6.1f%%",
			rw.name, rw.n, ms(rw.dur), ms(rw.self), share))
	}
	return out
}

// writeChrome writes the kept spans as Chrome trace_event JSON, which
// Perfetto opens. Spans are packed into tracks so that spans sharing a
// track nest properly.
func (r *recorder) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	spans := append([]span(nil), r.spans...)
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].end > spans[j].end
	})
	var base int64
	if len(spans) > 0 {
		base = spans[0].start
	}
	var tracks [][]int64 // per track, the end times of its open spans
	bw := bufio.NewWriter(f)
	fmt.Fprint(bw, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range spans {
		tid := -1
		for t, open := range tracks {
			for len(open) > 0 && open[len(open)-1] <= s.start {
				open = open[:len(open)-1]
			}
			tracks[t] = open
			if tid < 0 && (len(open) == 0 || open[len(open)-1] >= s.end) {
				tid = t
			}
		}
		if tid < 0 {
			tid = len(tracks)
			tracks = append(tracks, nil)
		}
		tracks[tid] = append(tracks[tid], s.end)
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "\n"+`{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"rid":%d}}`,
			s.name.String(), s.name.layer(), tid, float64(s.start-base)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent, s.rid)
	}
	fmt.Fprint(bw, "\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
