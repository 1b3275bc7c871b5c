package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"repro/internal/fleet"
)

// digest hashes outputs field by field, so two builds can be compared
// byte for byte without holding a rendered copy of a large report.
type digest struct {
	h   hash.Hash
	buf [8]byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) ints(vs ...int) {
	for _, v := range vs {
		d.u64(uint64(v))
	}
}

func (d *digest) floats(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

func (d *digest) str(s string) {
	d.ints(len(s))
	d.h.Write([]byte(s))
}

func (d *digest) bytes(b []byte) {
	d.ints(len(b))
	d.h.Write(b)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// digestReport hashes every number a fleet report carries: totals,
// per-round and per-host stats, per-group rounds and per-instance and
// per-group summaries.
func digestReport(rep fleet.Report) string {
	d := newDigest()
	d.floats(rep.TotalEnergyJ, rep.MeanPower, rep.MeanLatency, rep.P50Latency, rep.P95Latency, rep.P99Latency, rep.MeanRequestLoss)
	d.ints(rep.Completions, rep.Aborted, rep.Shed, len(rep.Rounds))
	for _, rs := range rep.Rounds {
		d.ints(rs.Round, rs.Arrivals, rs.Completions, rs.QueueDepth, rs.Beats,
			rs.FaultsLanded, rs.FaultRedispatched, rs.FaultDropped, rs.Shed)
		d.floats(rs.Budget, rs.PowerWatts, rs.MeanNormPerf, rs.MeanPlanLoss, rs.RequestLoss,
			rs.LatencyMean, rs.LatencyP50, rs.LatencyP95, rs.LatencyP99)
		for _, h := range rs.Hosts {
			d.ints(h.Index, h.State, h.Residents)
			d.floats(h.FreqGHz, h.Util, h.PowerWatts)
		}
		for _, g := range rs.Groups {
			d.str(g.Group)
			d.ints(g.Accepting, g.Arrivals, g.Completions, g.QueueDepth, g.Shed)
			d.floats(g.MeanNormPerf, g.RequestLoss, g.LatencyMean, g.LatencyP50, g.LatencyP95, g.LatencyP99)
		}
	}
	for _, il := range rep.PerInstance {
		d.str(il.Group)
		d.ints(il.ID, il.Completions)
		d.floats(il.P50, il.P95, il.P99)
	}
	for _, g := range rep.PerGroup {
		d.str(g.Group)
		d.ints(g.Completions, g.Aborted, g.Shed)
		d.floats(g.MeanLatency, g.P50Latency, g.P95Latency, g.P99Latency, g.MeanRequestLoss)
	}
	return d.sum()
}
