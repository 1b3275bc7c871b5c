package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/calibrate"
	"repro/internal/clock"
	"repro/internal/fleet"
	"repro/internal/platform"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// runner is one benchmark workload. The harness times each method from
// outside; the methods themselves only call into the program and
// record spans around those calls.
type runner interface {
	// setup calibrates, constructs and warms a fresh instance,
	// replacing any previous one.
	setup(tr *tracer, parent int) error
	// rounds is the number of timed rounds.
	rounds() int
	// round serves timed round i.
	round(tr *tracer, parent, i int) error
	// close makes the closing report call; it is part of the timed
	// phase.
	close(tr *tracer, parent int) error
	// outcome checks the outputs and reduces them to the run's
	// simulated results. It is not timed.
	outcome() outcome
}

// outcome is what a workload's outputs say, independent of host time.
type outcome struct {
	// completed counts simulated requests completed over the timed
	// rounds; reps counts sweep replications over them.
	completed, reps int
	// attempted and failed are the operations the failure ratio counts.
	attempted, failed int
	// simLatency and simP95 (s), simJPerReq (J) and simQoSLoss are
	// deterministic for a seed.
	simLatency, simP95, simJPerReq, simQoSLoss float64
	// beats counts simulated heartbeats over the timed rounds.
	beats int
	// acceptRatio is accepted over submitted serving requests.
	acceptRatio float64
	digest      string
	// problems lists every failed output check.
	problems []string
}

func (o *outcome) checkf(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// simFrom takes the simulated results of a fleet report.
func (o *outcome) simFrom(rep fleet.Report) {
	o.simLatency, o.simP95 = rep.MeanLatency, rep.P95Latency
	if rep.Completions > 0 {
		o.simJPerReq = rep.TotalEnergyJ / float64(rep.Completions)
	}
	o.simQoSLoss = rep.MeanRequestLoss
}

// params sizes a workload. Workers and Procs only change how fast a
// run goes, never what it computes.
type params struct {
	seed    int64
	rounds  int
	workers int
	procs   int
}

const (
	reqIters = 10
	quantum  = time.Second
	// powerSlack absorbs floating-point summation order in the power
	// checks, as the fleet's own budget tests do.
	powerSlack = 1e-9
)

func syntheticProfile(opts fleet.SyntheticOptions) (*calibrate.Profile, error) {
	return calibrate.Run(fleet.NewSynthetic(opts), calibrate.Options{Set: workload.Training})
}

func calibrateSpan(tr *tracer, parent int, opts fleet.SyntheticOptions) (*calibrate.Profile, error) {
	sp := tr.begin("calibrate.Run", parent, -1)
	prof, err := syntheticProfile(opts)
	tr.end(sp, 1)
	return prof, err
}

// atLowestState reports whether every host ended the round at the
// slowest DVFS state: no budget below that power is reachable, so the
// power checks allow it.
func atLowestState(rs fleet.RoundStats) bool {
	for _, h := range rs.Hosts {
		if h.State != len(platform.Frequencies)-1 {
			return false
		}
	}
	return len(rs.Hosts) > 0
}

// checkFleetReport holds a fleet report to request conservation and
// per-round power within budget(round).
func checkFleetReport(o *outcome, rep fleet.Report, budget func(round int) float64) (arrivals, dropped int) {
	for _, rs := range rep.Rounds {
		arrivals += rs.Arrivals
		b := budget(rs.Round)
		o.checkf(b <= 0 || rs.PowerWatts <= b+powerSlack || atLowestState(rs),
			"round %d power %.3f W over budget %.3f W", rs.Round, rs.PowerWatts, b)
	}
	backlog := 0
	if n := len(rep.Rounds); n > 0 {
		backlog = rep.Rounds[n-1].QueueDepth
	}
	if rep.Resilience != nil {
		dropped = rep.Resilience.Dropped
	}
	o.checkf(arrivals == rep.Completions+rep.Aborted+dropped+backlog,
		"request conservation: %d arrivals != %d completed + %d aborted + %d dropped + %d backlog",
		arrivals, rep.Completions, rep.Aborted, dropped, backlog)
	return arrivals, dropped
}

// fleetWorkload is a batch fleet driven round by round through
// Supervisor.Step: capped-128 and fluid-1024.
type fleetWorkload struct {
	p        params
	warm     int
	scenario func(prof *calibrate.Profile, seed int64, workers int) fleet.Scenario
	// budget is the cluster budget averaged over a round (the harness
	// lands any scheduled change halfway through the round).
	budget func(round int) float64
	// schedule lands budget changes before a round is stepped.
	schedule func(sup *fleet.Supervisor)

	sup       *fleet.Supervisor
	completed int
	beats     int
	rep       fleet.Report
}

// Budget per host for capped-128: a drop lands halfway through round
// 30 of every 40 and the original budget returns halfway through the
// next multiple of 40.
const (
	cappedHigh  = 185.0
	cappedLow   = 168.0
	cappedCycle = 40
	cappedDrop  = 30
)

// cappedPerHost is the per-host budget in force during the first
// (half=0) or second (half=1) half of round r.
func cappedPerHost(r, half int) float64 {
	ph := r % cappedCycle
	if ph > cappedDrop || (ph == cappedDrop && half == 1) || (ph == 0 && r > 0 && half == 0) {
		return cappedLow
	}
	return cappedHigh
}

func newCapped(p params) *fleetWorkload {
	const hosts = 128
	return &fleetWorkload{
		p:    p,
		warm: 5,
		scenario: func(prof *calibrate.Profile, seed int64, workers int) fleet.Scenario {
			return fleet.Scenario{
				Machines:        hosts,
				CoresPerMachine: 1,
				Budget:          cappedHigh * hosts,
				Workers:         workers,
				Groups: []fleet.WorkloadGroup{{
					Name:      "synthetic",
					NewApp:    func() (workload.App, error) { return fleet.NewSynthetic(fleet.SyntheticOptions{}), nil },
					Profile:   prof,
					Instances: hosts,
					Load:      fleet.NewConstantLoad(seed, 3.0*hosts).WithRequestIters(reqIters),
				}},
			}
		},
		budget: func(r int) float64 {
			return hosts * (cappedPerHost(r, 0) + cappedPerHost(r, 1)) / 2
		},
		schedule: func(sup *fleet.Supervisor) {
			r := sup.Round()
			if b := cappedPerHost(r, 1); b != cappedPerHost(r, 0) {
				sup.SetBudgetAt(time.Unix(0, 0).Add(time.Duration(r)*quantum+quantum/2), b*hosts)
			}
		},
	}
}

func newFluid(p params) *fleetWorkload {
	const hosts = 1024
	return &fleetWorkload{
		p:    p,
		warm: 2,
		scenario: func(prof *calibrate.Profile, seed int64, workers int) fleet.Scenario {
			return fleet.Scenario{
				Machines:        hosts,
				CoresPerMachine: 1,
				Budget:          210 * hosts, // not binding: steady DVFS keeps flows fluid
				Workers:         workers,
				ControlDisabled: true,
				EpochDispatch:   true,
				Fluid:           4,
				Groups: []fleet.WorkloadGroup{{
					Name:      "synthetic",
					NewApp:    func() (workload.App, error) { return fleet.NewSynthetic(fleet.SyntheticOptions{}), nil },
					Profile:   prof,
					Instances: hosts,
					Load:      fleet.NewConstantLoad(seed, 3.6*hosts).WithRequestIters(reqIters),
				}},
			}
		},
		budget:   func(int) float64 { return 210 * hosts },
		schedule: func(*fleet.Supervisor) {},
	}
}

func (w *fleetWorkload) setup(tr *tracer, parent int) error {
	prof, err := calibrateSpan(tr, parent, fleet.SyntheticOptions{})
	if err != nil {
		return err
	}
	sc := w.scenario(prof, w.p.seed, w.p.workers)
	sp := tr.begin("fleet.NewScenario", parent, -1)
	w.sup, err = fleet.NewScenario(sc)
	tr.end(sp, int64(sc.Machines))
	if err != nil {
		return err
	}
	warm := tr.begin("warm", parent, -1)
	defer tr.end(warm, int64(w.warm))
	for i := 0; i < w.warm; i++ {
		if _, err := w.step(tr, warm, -1); err != nil {
			return err
		}
	}
	w.completed, w.beats = 0, 0
	return nil
}

func (w *fleetWorkload) step(tr *tracer, parent, round int) (fleet.RoundStats, error) {
	w.schedule(w.sup)
	sp := tr.begin("fleet.Supervisor.Step", parent, round)
	rs, err := w.sup.Step(nil)
	tr.end(sp, int64(rs.Beats))
	return rs, err
}

func (w *fleetWorkload) rounds() int { return w.p.rounds }

func (w *fleetWorkload) round(tr *tracer, parent, i int) error {
	rs, err := w.step(tr, parent, i)
	w.completed += rs.Completions
	w.beats += rs.Beats
	return err
}

func (w *fleetWorkload) close(tr *tracer, parent int) error {
	sp := tr.begin("fleet.Supervisor.Report", parent, -1)
	w.rep = w.sup.Report()
	tr.end(sp, int64(w.rep.Completions))
	return nil
}

func (w *fleetWorkload) outcome() outcome {
	rep := w.rep
	o := outcome{completed: w.completed, beats: w.beats}
	arrivals, dropped := checkFleetReport(&o, rep, w.budget)
	o.checkf(w.completed > 0, "no request completed in the timed rounds")
	o.attempted, o.failed = arrivals, rep.Aborted+dropped
	o.simFrom(rep)
	o.digest = digestReport(rep)
	return o
}

// serveWorkload is the serving loop on a virtual clock, shaped like
// the live server with twin feed-forward: open-loop Poisson arrivals
// are submitted to the gateway at their due instants, each round is
// served by RunRound, and the twin then advises on the round's
// snapshot — what the asynchronous twin does with zero lag.
type serveWorkload struct {
	p params

	sup       *fleet.Supervisor
	clk       *clock.Virtual
	gw        *serve.Gateway
	srv       *serve.Server
	twin      *serve.Twin
	ts        *serve.TwinScaler
	rng       *rand.Rand
	next      time.Time
	done0     int64
	completed int
	rep       fleet.Report
}

const (
	serveRate     = 48.0 // requests per second of virtual time
	serveBudget   = 400.0
	serveSLO      = 1.5
	serveMax      = 32
	serveStart    = 16
	serveRecent   = 5
	serveWarm     = 3
	serveAdmitMax = 8
)

func newServe(p params) *serveWorkload { return &serveWorkload{p: p} }

func (w *serveWorkload) scenario(prof *calibrate.Profile, instances int) fleet.Scenario {
	return fleet.Scenario{
		Machines:        4,
		CoresPerMachine: 8,
		Budget:          serveBudget,
		Quantum:         quantum,
		Workers:         w.p.workers,
		Groups: []fleet.WorkloadGroup{{
			Name:      "web",
			NewApp:    func() (workload.App, error) { return fleet.NewSynthetic(fleet.SyntheticOptions{}), nil },
			Profile:   prof,
			Instances: instances,
		}},
	}
}

func (w *serveWorkload) setup(tr *tracer, parent int) error {
	prof, err := calibrateSpan(tr, parent, fleet.SyntheticOptions{})
	if err != nil {
		return err
	}
	sp := tr.begin("fleet.NewScenario", parent, -1)
	w.sup, err = fleet.NewScenario(w.scenario(prof, serveStart))
	tr.end(sp, 4)
	if err != nil {
		return err
	}
	inner, err := fleet.NewHysteresisScaler(fleet.HysteresisConfig{SLO: fleet.SLO{P95: serveSLO}, Max: serveMax})
	if err != nil {
		return err
	}
	w.ts = &serve.TwinScaler{Inner: inner}
	w.twin, err = serve.NewTwin(serve.TwinConfig{
		Scenario:     func() fleet.Scenario { return w.scenario(prof, 0) },
		ReqIters:     reqIters,
		SLO:          fleet.SLO{P95: serveSLO},
		MaxInstances: serveMax,
	})
	if err != nil {
		return err
	}
	if err := w.sup.Autoscale(w.ts, quantum/2); err != nil {
		return err
	}
	w.clk = clock.NewVirtual(time.Unix(0, 0))
	w.gw = serve.NewGateway(w.clk, 4096)
	adm, err := serve.NewAdmission([]serve.AdmissionConfig{{MaxQueuePerInstance: serveAdmitMax}})
	if err != nil {
		return err
	}
	w.srv, err = serve.New(serve.Config{Supervisor: w.sup, Clock: w.clk, Gateway: w.gw, Admission: adm, Recent: serveRecent})
	if err != nil {
		return err
	}
	w.rng = rand.New(rand.NewSource(w.p.seed))
	w.next = w.clk.Now().Add(w.gap())
	warm := tr.begin("warm", parent, -1)
	defer tr.end(warm, serveWarm)
	for i := 0; i < serveWarm; i++ {
		if err := w.round(tr, warm, -1); err != nil {
			return err
		}
	}
	w.done0 = w.srv.Completions()
	return nil
}

// gap draws the next exponential inter-arrival time.
func (w *serveWorkload) gap() time.Duration {
	return time.Duration(w.rng.ExpFloat64() / serveRate * float64(time.Second))
}

func (w *serveWorkload) round(tr *tracer, parent, round int) error {
	end := time.Unix(0, 0).Add(time.Duration(w.sup.Round()+1) * quantum)
	sp := tr.begin("serve.Gateway.Submit", parent, round)
	n := 0
	for w.next.Before(end) {
		w.clk.Set(w.next)
		w.gw.Submit(0, reqIters)
		n++
		w.next = w.next.Add(w.gap())
	}
	tr.end(sp, int64(n))

	sp = tr.begin("serve.Server.RunRound", parent, round)
	err := w.srv.RunRound()
	tr.end(sp, 1)
	if err != nil {
		return err
	}
	sp = tr.begin("fleet.Supervisor.StateSnapshot", parent, round)
	snap := w.sup.StateSnapshot(serveRecent)
	tr.end(sp, 1)
	sp = tr.begin("serve.Twin.Advise", parent, round)
	rec, err := w.twin.Advise(snap)
	tr.end(sp, 1)
	if err != nil {
		return err
	}
	w.ts.SetAdvice(rec)
	return nil
}

func (w *serveWorkload) rounds() int { return w.p.rounds }

func (w *serveWorkload) close(tr *tracer, parent int) error {
	sp := tr.begin("fleet.Supervisor.Report", parent, -1)
	w.rep = w.sup.Report()
	tr.end(sp, int64(w.rep.Completions))
	w.completed = int(w.srv.Completions() - w.done0)
	return nil
}

func (w *serveWorkload) outcome() outcome {
	rep := w.rep
	o := outcome{completed: w.completed}
	arrivals, dropped := checkFleetReport(&o, rep, func(int) float64 { return serveBudget })
	submitted, overflow := int(w.gw.Submitted()), int(w.gw.Overflow())
	accepted, shed, invalid := int(w.srv.Accepted()), int(w.srv.Shed()), int(w.srv.Invalid())
	o.checkf(submitted == accepted+shed+invalid+overflow,
		"serve conservation: %d submitted != %d accepted + %d shed + %d invalid + %d overflow",
		submitted, accepted, shed, invalid, overflow)
	o.checkf(accepted == arrivals+w.sup.InjectedPending(),
		"serve conservation: %d accepted != %d fleet arrivals + %d pending injections", accepted, arrivals, w.sup.InjectedPending())
	o.checkf(w.completed > 0, "no request completed in the timed rounds")
	for _, rs := range rep.Rounds[len(rep.Rounds)-w.p.rounds:] {
		o.beats += rs.Beats
	}
	o.attempted = submitted
	o.failed = shed + invalid + overflow + rep.Aborted + dropped
	if submitted > 0 {
		o.acceptRatio = float64(accepted) / float64(submitted)
	}
	o.simFrom(rep)
	d := newDigest()
	d.str(digestReport(rep))
	d.ints(submitted, accepted, shed, invalid, overflow)
	o.digest = d.sum()
	return o
}

//go:embed arbiter.json
var arbiterGrid []byte

// sweepWorkload runs the sub-quantum arbiter sweep as a series of
// sweep.Run calls, one per timed round, each with its own base seed
// derived from the workload seed; the replication count therefore
// scales with the run length.
type sweepWorkload struct {
	p           params
	repsPerCell int
	grid        *sweep.Grid
	results     []*sweep.Result
}

func newSweep(p params) *sweepWorkload { return &sweepWorkload{p: p, repsPerCell: 8} }

func (w *sweepWorkload) setup(tr *tracer, parent int) error {
	g, err := sweep.ParseGrid(arbiterGrid)
	if err != nil {
		return err
	}
	w.grid = g
	// sweep.Run calibrates each distinct synthetic cost once per call;
	// this is that calibration, timed from outside.
	if _, err := calibrateSpan(tr, parent, fleet.SyntheticOptions{BaseCost: g.Base.Groups[0].BaseCost}); err != nil {
		return err
	}
	warm := tr.begin("warm", parent, -1)
	defer tr.end(warm, 1)
	_, err = w.run(tr, warm, -1, w.repsPerCell)
	w.results = w.results[:0]
	return err
}

func (w *sweepWorkload) run(tr *tracer, parent, round, reps int) (*sweep.Result, error) {
	g := *w.grid
	g.BaseSeed = sweep.DeriveSeed(w.p.seed, round, -1)
	sp := tr.begin("sweep.Run", parent, round)
	res, err := sweep.Run(&g, sweep.Options{Procs: w.p.procs, Replications: reps})
	tr.end(sp, int64(reps*g.CellCount()))
	return res, err
}

func (w *sweepWorkload) rounds() int { return w.p.rounds }

func (w *sweepWorkload) round(tr *tracer, parent, i int) error {
	res, err := w.run(tr, parent, i, w.repsPerCell)
	if err != nil {
		return err
	}
	w.results = append(w.results, res)
	return nil
}

func (w *sweepWorkload) close(*tracer, int) error { return nil }

// meanBudget is the cluster budget averaged over rounds [from, to) of
// a sweep cell, with the cell's drop landing halfway through its round.
func meanBudget(c sweep.Cell, from, to int) float64 {
	base := 400.0
	if c.Budget != nil {
		base = *c.Budget
	}
	if base <= 0 {
		return math.Inf(1)
	}
	var total float64
	for r := from; r < to; r++ {
		switch {
		case c.BudgetDropTo <= 0 || r < c.BudgetDropRound:
			total += base
		case r == c.BudgetDropRound:
			total += (base + c.BudgetDropTo) / 2
		default:
			total += c.BudgetDropTo
		}
	}
	return total / float64(to-from)
}

func (w *sweepWorkload) outcome() outcome {
	var o outcome
	var csv bytes.Buffer
	var energy, latency, p95 float64
	for _, res := range w.results {
		if err := sweep.WriteCSV(&csv, res); err != nil {
			o.checkf(false, "sweep CSV: %v", err)
		}
		for ci, cell := range res.Stats {
			c, _, err := res.Grid.CellAt(ci)
			if err != nil {
				o.checkf(false, "cell %d: %v", ci, err)
				continue
			}
			limit := meanBudget(c, res.Warmup, res.Rounds)
			for _, st := range cell {
				o.checkf(st.Arrivals == st.Completions+st.Aborted+st.Dropped+st.QueueDepth,
					"cell %d rep %d: %d arrivals != %d completed + %d aborted + %d dropped + %d backlog",
					ci, st.Rep, st.Arrivals, st.Completions, st.Aborted, st.Dropped, st.QueueDepth)
				o.checkf(st.MeanPower <= limit+powerSlack*float64(res.Rounds),
					"cell %d rep %d: mean power %.3f W over mean budget %.3f W", ci, st.Rep, st.MeanPower, limit)
				o.reps++
				o.completed += st.Completions
				energy += st.EnergyJ
				latency += st.MeanSojourn
				p95 += st.P95
			}
		}
	}
	o.checkf(o.completed > 0, "no request completed in the timed rounds")
	// A replication that fails makes sweep.Run fail the whole call, so
	// every replication that reached here succeeded.
	o.attempted = o.reps
	if o.reps > 0 {
		o.simLatency, o.simP95 = latency/float64(o.reps), p95/float64(o.reps)
	}
	if o.completed > 0 {
		o.simJPerReq = energy / float64(o.completed)
	}
	d := newDigest()
	d.bytes(csv.Bytes())
	o.digest = d.sum()
	return o
}
