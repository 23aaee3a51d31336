package shard

import (
	"strconv"

	"spatialjoin/internal/metrics"
)

// Metric names owned by package shard: the coordinator's live view of
// its worker fleet. Everything here is process-lifetime; per-shard
// series carry a "shard" label with the decimal shard id.
const (
	// metSpawns counts worker processes started, restarts included.
	metSpawns = "shard.spawns"
	// metKills counts attempts that ended with a dead worker process.
	metKills = "shard.kills"
	// metRestarts counts restart attempts after failures, per shard.
	metRestarts = "shard.restarts"
	// metAbsorbed counts shards absorbed into the coordinator after
	// restart exhaustion.
	metAbsorbed = "shard.absorbed"
	// metRederived counts partitions handed again to a retry or an
	// absorb.
	metRederived = "shard.rederived"
	// metSeals counts partitions sealed (merged back in order).
	metSeals = "shard.seals"
	// metHeartbeatAge is the per-shard seconds since the last frame from
	// the live attempt, sampled by the supervision watchdog; 0 when the
	// shard has no attempt in flight.
	metHeartbeatAge = "shard.heartbeat.age.seconds"
	// metRecoverySeconds is the failure-detection → first-subsequent-
	// progress latency histogram, in seconds.
	metRecoverySeconds = "shard.recovery.seconds"
	// metDegraded counts shards that fell from remote TCP execution to
	// locally spawned workers — rung two of the degradation ladder.
	metDegraded = "shard.degraded"
	// metNetDials counts connection attempts to resident workers.
	metNetDials = "shard.net.dials"
	// metNetDialFailures counts dials that returned an error.
	metNetDialFailures = "shard.net.dial.failures"
	// metNetPingFailures counts fresh connections that failed the
	// ping/beat health check.
	metNetPingFailures = "shard.net.ping.failures"
	// metNetLeases counts healthy worker links handed out by the pool.
	metNetLeases = "shard.net.leases"
	// metNetEvictions counts failure records against endpoints (a
	// failed connect or a failed job lease).
	metNetEvictions = "shard.net.evictions"
	// metNetQuarantined counts endpoints quarantined after repeated
	// consecutive failures.
	metNetQuarantined = "shard.net.quarantined"
	// metNetReconnectSeconds is the latency histogram of leases that
	// succeeded only after routing around at least one failure.
	metNetReconnectSeconds = "shard.net.reconnect.seconds"
)

// shardMetrics is the coordinator's handle set; nil without a registry,
// with every method nil-safe — the same pattern as the trace recorder.
type shardMetrics struct {
	spawns    *metrics.Counter
	kills     *metrics.Counter
	restarts  *metrics.CounterVec
	absorbed  *metrics.Counter
	rederived *metrics.Counter
	seals     *metrics.Counter
	beatAge   *metrics.FloatGaugeVec
	recovery  *metrics.Histogram

	degraded        *metrics.Counter
	netDials        *metrics.Counter
	netDialFailures *metrics.Counter
	netPingFailures *metrics.Counter
	netLeases       *metrics.Counter
	netEvictions    *metrics.Counter
	netQuarantined  *metrics.Counter
	netReconnectH   *metrics.Histogram
}

// newShardMetrics resolves the handles, or nil without a registry.
func newShardMetrics(r *metrics.Registry) *shardMetrics {
	if r == nil {
		return nil
	}
	return &shardMetrics{
		spawns:    r.Counter(metSpawns),
		kills:     r.Counter(metKills),
		restarts:  r.CounterVec(metRestarts, "shard"),
		absorbed:  r.Counter(metAbsorbed),
		rederived: r.Counter(metRederived),
		seals:     r.Counter(metSeals),
		beatAge:   r.FloatGaugeVec(metHeartbeatAge, "shard"),
		recovery:  r.Histogram(metRecoverySeconds),

		degraded:        r.Counter(metDegraded),
		netDials:        r.Counter(metNetDials),
		netDialFailures: r.Counter(metNetDialFailures),
		netPingFailures: r.Counter(metNetPingFailures),
		netLeases:       r.Counter(metNetLeases),
		netEvictions:    r.Counter(metNetEvictions),
		netQuarantined:  r.Counter(metNetQuarantined),
		netReconnectH:   r.Histogram(metNetReconnectSeconds),
	}
}

func shardLabel(id int) string { return strconv.Itoa(id) }

func (sm *shardMetrics) spawn() {
	if sm != nil {
		sm.spawns.Inc()
	}
}

func (sm *shardMetrics) kill() {
	if sm != nil {
		sm.kills.Inc()
	}
}

func (sm *shardMetrics) restart(id int) {
	if sm != nil {
		sm.restarts.With(shardLabel(id)).Inc()
	}
}

func (sm *shardMetrics) absorb() {
	if sm != nil {
		sm.absorbed.Inc()
	}
}

func (sm *shardMetrics) rederive(n int) {
	if sm != nil {
		sm.rederived.Add(int64(n))
	}
}

func (sm *shardMetrics) seal() {
	if sm != nil {
		sm.seals.Inc()
	}
}

// heartbeat publishes the age of shard id's last frame; the watchdog
// calls it on every tick, and with 0 when the attempt ends.
func (sm *shardMetrics) heartbeat(id int, ageSeconds float64) {
	if sm != nil {
		sm.beatAge.With(shardLabel(id)).Set(ageSeconds)
	}
}

// recovered feeds one closed failure window into the shared latency
// histogram.
func (sm *shardMetrics) recovered(seconds float64) {
	if sm != nil {
		sm.recovery.Observe(seconds)
	}
}

func (sm *shardMetrics) degrade() {
	if sm != nil {
		sm.degraded.Inc()
	}
}

func (sm *shardMetrics) netDial() {
	if sm != nil {
		sm.netDials.Inc()
	}
}

func (sm *shardMetrics) netDialFail() {
	if sm != nil {
		sm.netDialFailures.Inc()
	}
}

func (sm *shardMetrics) netPingFail() {
	if sm != nil {
		sm.netPingFailures.Inc()
	}
}

func (sm *shardMetrics) netLease() {
	if sm != nil {
		sm.netLeases.Inc()
	}
}

func (sm *shardMetrics) netEvict() {
	if sm != nil {
		sm.netEvictions.Inc()
	}
}

func (sm *shardMetrics) netQuarantine() {
	if sm != nil {
		sm.netQuarantined.Inc()
	}
}

// netReconnect feeds one routed-around-failure lease into the latency
// histogram.
func (sm *shardMetrics) netReconnect(seconds float64) {
	if sm != nil {
		sm.netReconnectH.Observe(seconds)
	}
}
