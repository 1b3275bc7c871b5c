package main

import (
	"bufio"
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// span is one timed call the harness made into a layer (or one
// harness-level phase around such calls). Times are nanoseconds since
// the tracer's epoch; cpu and allocs are process-wide counters read at
// the span's edges.
type span struct {
	name           string
	parent, round  int
	start, end     int64
	cpu0, cpu1     int64
	alloc0, alloc1 uint64
	count          int64
}

// tracer keeps spans in memory; nothing is written until the run ends.
// A disabled tracer records nothing and costs one branch per call, so
// the untraced runs time the same code path.
type tracer struct {
	on     bool
	epoch  time.Time
	spans  []span
	sample []metrics.Sample
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, epoch: time.Now()}
	if on {
		t.spans = make([]span, 0, 1<<16)
		t.sample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	}
	return t
}

// noSpan is the id begin returns while tracing is off.
const noSpan = -1

// begin opens a span under parent (noSpan for a root) and returns its
// id. round tags every span of one served round with the same id (-1
// outside the timed rounds).
func (t *tracer) begin(name string, parent, round int) int {
	if !t.on {
		return noSpan
	}
	t.spans = append(t.spans, span{
		name: name, parent: parent, round: round,
		cpu0: cpuNanos(), alloc0: t.allocs(),
		start: int64(time.Since(t.epoch)),
	})
	return len(t.spans) - 1
}

// end closes span id, recording count units of work done inside it.
func (t *tracer) end(id int, count int64) {
	if id == noSpan {
		return
	}
	s := &t.spans[id]
	s.end = int64(time.Since(t.epoch))
	s.cpu1 = cpuNanos()
	s.alloc1 = t.allocs()
	s.count = count
}

func (t *tracer) allocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// cpuNanos is the process's user+system CPU time.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// selfTimes returns each span's duration minus the part of its
// interval covered by its children (overlapping children count once).
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ch := kids[i]
		sort.Slice(ch, func(a, b int) bool { return spans[ch[a]].start < spans[ch[b]].start })
		var covered, curS, curE int64
		open := false
		for _, c := range ch {
			cs, ce := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if ce <= cs {
				continue
			}
			switch {
			case !open:
				curS, curE, open = cs, ce, true
			case cs <= curE:
				curE = max(curE, ce)
			default:
				covered += curE - curS
				curS, curE = cs, ce
			}
		}
		if open {
			covered += curE - curS
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// descendants marks every span under root (root included).
func descendants(spans []span, root int) []bool {
	in := make([]bool, len(spans))
	if root < 0 {
		return in
	}
	in[root] = true
	// Parents always precede their children, so one forward pass sees
	// every ancestor before its descendants.
	for i := root + 1; i < len(spans); i++ {
		if p := spans[i].parent; p >= 0 && in[p] {
			in[i] = true
		}
	}
	return in
}

// writeSpans dumps the spans as TSV: id, parent, round, name, start and
// end in ns since the run began, self ns, CPU ns, allocated objects and
// the span's work count.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	self := selfTimes(spans)
	fmt.Fprintln(bw, "id\tparent\tround\tname\tstart_ns\tend_ns\tself_ns\tcpu_ns\tallocs\tcount")
	for i, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
			i, s.parent, s.round, s.name, s.start, s.end, self[i], s.cpu1-s.cpu0, s.alloc1-s.alloc0, s.count)
	}
	return bw.Flush()
}
