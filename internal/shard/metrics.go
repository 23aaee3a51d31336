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
	// metAborted counts sharded joins that ended in a fatal error
	// (cancellation, deadline) instead of a result.
	metAborted = "shard.aborted"
)

// shardMetrics is the coordinator's handle set, resolved once per join
// (or pool). Without a registry every handle is nil, and nil handles are
// no-ops, so call sites update them unconditionally.
type shardMetrics struct {
	spawns    *metrics.Counter
	kills     *metrics.Counter
	restarts  *metrics.CounterVec // by shard
	absorbed  *metrics.Counter
	rederived *metrics.Counter
	seals     *metrics.Counter
	aborted   *metrics.Counter
	beatAge   *metrics.GaugeVec  // by shard; 0 when no attempt is in flight
	recovery  *metrics.Histogram // seconds, one closed failure window each

	degraded        *metrics.Counter
	netDials        *metrics.Counter
	netDialFailures *metrics.Counter
	netPingFailures *metrics.Counter
	netLeases       *metrics.Counter
	netEvictions    *metrics.Counter
	netQuarantined  *metrics.Counter
	netReconnectH   *metrics.Histogram // seconds, leases that routed around a failure
}

// newShardMetrics resolves the handles.
func newShardMetrics(r *metrics.Registry) *shardMetrics {
	return &shardMetrics{
		spawns:    r.Counter(metSpawns),
		kills:     r.Counter(metKills),
		restarts:  r.CounterVec(metRestarts, "shard"),
		absorbed:  r.Counter(metAbsorbed),
		rederived: r.Counter(metRederived),
		seals:     r.Counter(metSeals),
		aborted:   r.Counter(metAborted),
		beatAge:   r.GaugeVec(metHeartbeatAge, "shard"),
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
