// Command perfbench is the repository benchmark. It runs one of four
// fleet workloads in this process, timing each layer from outside
// around calls into its public functions (calibrate.Run,
// fleet.NewScenario, Supervisor.Step/Report/StateSnapshot,
// serve.Gateway.Submit, serve.Server.RunRound, serve.Twin.Advise and
// sweep.Run), checks the outputs, and prints its metrics; the last
// line of standard output is one JSON object.
//
//	perfbench --workload capped-128 --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// runs the workload twice, untraced and then with spans recorded around
// every layer call, prints the per-layer metrics and the tracing
// overhead, and writes the spans and a CPU-profile top-N to --out.
//
// The work a run does is fixed by --workload, --seed and --seconds:
// --seconds sets the number of timed rounds, sized so that a round
// budget of that many seconds is spent on a 2-core 2.1 GHz Xeon. The
// simulated results therefore repeat exactly for a seed, whatever the
// host speed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 5

// legs maps each workload to its constructor, the timed rounds one
// requested second buys on the reference machine, and its GOMAXPROCS
// (0 = every CPU). The serving loop runs on one P: it is serial (the
// twin advises on the loop's goroutine), and on the 2-vCPU reference VM
// a second P made it about 30% slower and several times noisier between
// runs, through GC and scheduler hand-offs to an idle vCPU.
var legs = map[string]struct {
	make      func(params) runner
	perSecond float64
	maxProcs  int
}{
	"capped-128":    {func(p params) runner { return newCapped(p) }, 200, 0},
	"fluid-1024":    {func(p params) runner { return newFluid(p) }, 60, 0},
	"serve-twin":    {func(p params) runner { return newServe(p) }, 22, 1},
	"sweep-arbiter": {func(p params) runner { return newSweep(p) }, 26, 0},
}

func legNames() []string {
	var names []string
	for n := range legs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// phase is one pass over a workload: repeated setup, the timed rounds
// and closing report, then the output checks.
type phase struct {
	setupS     []float64
	roundMS    []float64
	timedS     float64
	cpuS       float64
	out        outcome
	allocs     uint64
	allocBytes uint64
	gcPauseNS  uint64
	heapMB     float64
	timedRoot  int
}

func runPhase(w runner, tr *tracer) (*phase, error) {
	ph := &phase{}
	for i := 0; i < setupReps; i++ {
		sp := tr.begin("setup", noSpan, -1)
		t0 := time.Now()
		err := w.setup(tr, sp)
		ph.setupS = append(ph.setupS, time.Since(t0).Seconds())
		tr.end(sp, 1)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	runtime.GC() // start the timed phase from a settled heap
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := w.rounds()
	ph.roundMS = make([]float64, n)
	ph.timedRoot = tr.begin("timed", noSpan, -1)
	cpu0 := cpuNanos()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sp := tr.begin("round", ph.timedRoot, i)
		r0 := time.Now()
		err := w.round(tr, sp, i)
		ph.roundMS[i] = float64(time.Since(r0)) / float64(time.Millisecond)
		tr.end(sp, 1)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
	}
	if err := w.close(tr, ph.timedRoot); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	ph.timedS = time.Since(t0).Seconds()
	ph.cpuS = float64(cpuNanos()-cpu0) / 1e9
	tr.end(ph.timedRoot, int64(n))
	runtime.ReadMemStats(&m1)
	ph.allocs = m1.Mallocs - m0.Mallocs
	ph.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	ph.gcPauseNS = m1.PauseTotalNs - m0.PauseTotalNs
	ph.out = w.outcome()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	ph.heapMB = float64(m1.HeapAlloc) / 1e6
	runtime.KeepAlive(w)
	return ph, nil
}

// metric is one reported number. Only inJSON metrics go into the final
// JSON line; the rest are printed for the reader.
type metric struct {
	name   string
	value  float64
	unit   string
	note   string
	inJSON bool
}

type report struct {
	metrics []metric
	bad     []string
}

func (r *report) add(name string, value float64, unit, note string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.bad = append(r.bad, fmt.Sprintf("metric %s is %v", name, value))
		value = 0
	}
	r.metrics = append(r.metrics, metric{name, value, unit, note, true})
}

// print adds a metric that is printed but kept out of the JSON line.
func (r *report) print(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, note, false})
}

// addTail reports the round tail of ph, with the percentile it sits at.
func (r *report) addTail(ph *phase, inJSON bool) {
	v, pct, n, ok := tail(ph.roundMS)
	if !ok {
		r.bad = append(r.bad, fmt.Sprintf("only %d rounds: no tail percentile", n))
	}
	note := fmt.Sprintf("p%g of %d rounds, at least %d beyond", pct, n, tailBeyond)
	if inJSON {
		r.add("round_ms_tail", v, "ms", note)
	} else {
		r.print("round_ms_tail", v, "ms", note)
	}
}

// endToEnd derives the user-visible metrics from an untraced phase.
// The round tail, the p95 latency, the QoS loss and the sweep's
// replication rate are printed only: the tail spreads more between runs
// on a shared 2-core host than any bound allows, the p95 is quantised to
// the beat, and the others are 0 or undefined on some workloads.
func endToEnd(ph *phase) *report {
	r := &report{}
	o := ph.out
	r.add("setup_s", median(ph.setupS), "s", fmt.Sprintf("median of %d set-ups", len(ph.setupS)))
	r.add("sim_req_per_s", float64(o.completed)/ph.timedS, "1/s",
		fmt.Sprintf("%d simulated requests in %.3f s", o.completed, ph.timedS))
	r.add("round_ms_p50", median(ph.roundMS), "ms", fmt.Sprintf("%d rounds", len(ph.roundMS)))
	r.addTail(ph, false)
	r.add("heap_mb", ph.heapMB, "MB", "live heap after a final GC")
	r.add("sim_latency_s", o.simLatency, "s", "simulated mean request latency")
	r.add("sim_j_per_req", o.simJPerReq, "J", "simulated")
	r.print("sim_p95_s", o.simP95, "s", "simulated")
	if o.reps > 0 {
		r.print("reps_per_s", float64(o.reps)/ph.timedS, "1/s", fmt.Sprintf("%d replications", o.reps))
	} else {
		r.print("sim_qos_loss", o.simQoSLoss, "ratio", "simulated")
	}
	return r
}

// spanStats sums what the traced phase recorded per span name.
type spanStats struct {
	n              int
	wallNS, selfNS int64
	cpuNS          int64
	allocs, count  int64
	walls, selfs   []float64
}

func collect(spans []span, in []bool) map[string]*spanStats {
	self := selfTimes(spans)
	by := map[string]*spanStats{}
	for i, s := range spans {
		if in != nil && !in[i] {
			continue
		}
		st := by[s.name]
		if st == nil {
			st = &spanStats{}
			by[s.name] = st
		}
		st.n++
		st.wallNS += s.end - s.start
		st.selfNS += self[i]
		st.cpuNS += s.cpu1 - s.cpu0
		st.allocs += int64(s.alloc1 - s.alloc0)
		st.count += s.count
		st.walls = append(st.walls, float64(s.end-s.start))
		st.selfs = append(st.selfs, float64(self[i]))
	}
	return by
}

// harnessSpans are the spans the harness opens around its own phases;
// every other span is a call into a layer.
var harnessSpans = map[string]bool{"setup": true, "warm": true, "timed": true, "round": true}

// perLayer derives the per-layer metrics from an untraced phase a and
// a traced phase b of the same workload and seed.
func perLayer(a, b *phase, tr *tracer) *report {
	r := &report{}
	all := collect(tr.spans, nil)
	timed := collect(tr.spans, descendants(tr.spans, b.timedRoot))
	get := func(m map[string]*spanStats, name string) *spanStats {
		if st := m[name]; st != nil {
			return st
		}
		return &spanStats{}
	}
	procs := float64(runtime.GOMAXPROCS(0))
	div := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	rounds := float64(len(b.roundMS))
	r.addTail(a, true)

	r.add("calibrate.run_ms", median(get(all, "calibrate.Run").walls)/1e6, "ms", "median per call")
	r.add("fleet.new_ms", median(get(all, "fleet.NewScenario").walls)/1e6, "ms", "median per call")
	step := get(timed, "fleet.Supervisor.Step")
	r.add("fleet.step_ms", median(step.selfs)/1e6, "ms", "median self time per timed Step")
	r.add("fleet.beats_per_round", div(float64(b.out.beats), rounds), "count", "simulated")
	// Serving steps the fleet inside RunRound, so the serving round is
	// the per-beat path's nearest outside boundary there.
	beatPath := step
	if beatPath.n == 0 {
		beatPath = get(timed, "serve.Server.RunRound")
	}
	r.add("fleet.ns_per_beat", div(float64(beatPath.wallNS), float64(b.out.beats)), "ns", "Step (RunRound when serving) wall per beat")
	r.add("fleet.cpu_util", div(float64(beatPath.cpuNS), float64(beatPath.wallNS)*procs), "ratio", "CPU / (wall x GOMAXPROCS) around Step")
	r.add("fleet.allocs_per_round", div(float64(a.allocs), rounds), "count", "untraced timed phase")
	r.add("fleet.alloc_bytes_per_round", div(float64(a.allocBytes), rounds), "B", "untraced timed phase")
	r.add("go.gc_pause_ms", float64(a.gcPauseNS)/1e6, "ms", "total stop-the-world pause, untraced timed phase")
	r.add("fleet.report_ms", float64(get(timed, "fleet.Supervisor.Report").wallNS)/1e6, "ms", "closing Report")
	r.add("fleet.snapshot_us", median(get(timed, "fleet.Supervisor.StateSnapshot").walls)/1e3, "us", "median per call")
	r.add("fleet.qos_loss", b.out.simQoSLoss, "ratio", "simulated mean request QoS loss")
	r.add("fleet.p95_latency_s", b.out.simP95, "s", "simulated request latency p95")
	sub := get(timed, "serve.Gateway.Submit")
	r.add("serve.submit_ns", div(float64(sub.wallNS), float64(sub.count)), "ns", "per submission, batch spans")
	r.add("serve.run_round_ms", median(get(timed, "serve.Server.RunRound").walls)/1e6, "ms", "median per round")
	adv := get(timed, "serve.Twin.Advise")
	r.add("serve.twin_advise_ms", median(adv.walls)/1e6, "ms", "median per round")
	r.add("serve.twin_allocs", div(float64(adv.allocs), float64(adv.n)), "count", "mean allocated objects per Advise")
	r.add("serve.accept_ratio", b.out.acceptRatio, "ratio", "accepted / submitted")
	late := 0
	for _, ms := range a.roundMS {
		if ms > float64(quantum/time.Millisecond) {
			late++
		}
	}
	r.add("serve.late_rounds", float64(late), "count", "untraced rounds slower than the 1 s quantum")
	sw := get(timed, "sweep.Run")
	r.add("sweep.run_s", float64(sw.wallNS)/1e9, "s", "sweep.Run wall over the timed rounds")
	r.add("sweep.reps_per_s", div(float64(a.out.reps), a.timedS), "1/s", "untraced timed phase")
	r.add("sweep.rep_cpu_ms", div(float64(sw.cpuNS)/1e6, float64(b.out.reps)), "ms", "CPU per replication")
	r.add("sweep.cpu_util", div(float64(sw.cpuNS), float64(sw.wallNS)*procs), "ratio", "CPU / (wall x GOMAXPROCS) around sweep.Run")
	r.add("sweep.allocs_per_rep", div(float64(sw.allocs), float64(b.out.reps)), "count", "allocated objects per replication")

	var layerNS int64
	for name, st := range timed {
		if !harnessSpans[name] {
			layerNS += st.selfNS
		}
	}
	rootNS := float64(tr.spans[b.timedRoot].end - tr.spans[b.timedRoot].start)
	r.add("trace.layer_pct", 100*div(float64(layerNS), rootNS), "%", "timed phase spent inside layer calls; the rest is harness self time")
	r.add("trace.overhead_pct", 100*(b.timedS-a.timedS)/a.timedS, "%", "traced vs untraced timed phase, same work")
	return r
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: "+strings.Join(legNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: every load generator and the serving arrival schedule derive from it")
	seconds := fs.Float64("seconds", 15, "run length; sets the number of timed rounds")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans and a CPU-profile top-N")
	outDir := fs.String("out", filepath.Join(".bench_build", "trace"), "where a traced run writes spans and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	leg, ok := legs[*wl]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(legNames(), ", "))
		return 2
	}
	if leg.maxProcs > 0 {
		runtime.GOMAXPROCS(leg.maxProcs)
	}
	p := params{
		seed:    *seed,
		rounds:  max(2*tailBeyond, int(math.Round(*seconds*leg.perSecond))),
		workers: 2,
		procs:   2,
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g rounds=%d trace=%d gomaxprocs=%d workers=%d procs=%d\n",
		*wl, p.seed, *seconds, p.rounds, *trace, runtime.GOMAXPROCS(0), p.workers, p.procs)

	var (
		rep  *report
		last *phase
		bad  []string
	)
	if *trace == 0 {
		ph, err := runPhase(leg.make(p), newTracer(false))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *wl, err)
			return 1
		}
		rep, last = endToEnd(ph), ph
	} else {
		base := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d", *wl, p.seed))
		stopProfile, err := startProfile(base + ".cpu.pprof")
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		a, err := runPhase(leg.make(p), newTracer(false))
		var b *phase
		tr := newTracer(true)
		if err == nil {
			b, err = runPhase(leg.make(p), tr)
		}
		if perr := stopProfile(); err == nil {
			err = perr
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *wl, err)
			return 1
		}
		if a.out.digest != b.out.digest {
			bad = append(bad, fmt.Sprintf("traced digest %s != untraced %s", b.out.digest, a.out.digest))
		}
		rep, last = perLayer(a, b, tr), b
		if err := writeTraceFiles(base, tr.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d spans to %s.spans.tsv, profile and top-%d to %s.{cpu.pprof,top.txt}\n", len(tr.spans), base, topN, base)
	}

	o := last.out
	bad = append(bad, o.problems...)
	bad = append(bad, rep.bad...)
	fr, err := failRatio(o.failed, o.attempted)
	if err != nil {
		bad = append(bad, err.Error())
	}
	rep.print("fail_ratio", fr, "ratio", fmt.Sprintf("%d failed of %d attempted", o.failed, o.attempted))
	for _, m := range rep.metrics {
		fmt.Fprintf(stdout, "%-26s %16.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	fmt.Fprintf(stdout, "timed phase: %.3f s wall, %.3f s process CPU (%.2f of %d procs)\n",
		last.timedS, last.cpuS, last.cpuS/last.timedS/float64(runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "digest %s\n", o.digest)

	for _, b := range bad {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", b)
	}

	metrics := make(map[string]any, len(rep.metrics))
	for _, m := range rep.metrics {
		if m.inJSON {
			metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(bad) == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(bad) > 0 {
		return 1
	}
	return 0
}
