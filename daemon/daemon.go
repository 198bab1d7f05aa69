// Package daemon is the public face of spinald: a UDP datagram server
// that carries client payloads across per-core sharded spinal link
// engines, with a JSON telemetry endpoint and graceful drain. Each shard
// runs to completion on one goroutine: it reads its own socket, runs its
// engine's codec work and writes its own batched results. On Linux the
// shards' sockets share one port and the kernel steers each connection
// ID to its shard; other unix systems run one shard, and New fails on
// systems that are not unix. cmd/spinald is a thin flag wrapper around
// this package; spinalcat's -loadgen mode drives a running daemon
// through RunLoad.
//
// Like spinal/sim, this package is an experiment surface, not a
// stability contract: configuration and metrics fields may grow between
// versions (see docs/API.md).
package daemon

import (
	idaemon "spinal/internal/daemon"
)

// Result statuses carried in loadgen records and telemetry.
const (
	StatusDelivered = idaemon.StatusDelivered
	StatusOutage    = idaemon.StatusOutage
	StatusRejected  = idaemon.StatusRejected
	StatusError     = idaemon.StatusError
)

// Config configures a daemon: socket and telemetry addresses, shard
// count, code parameters, the simulated channel every served flow
// crosses, the scheduler and the replay cache.
type Config = idaemon.Config

// Daemon is a running spinald instance.
type Daemon = idaemon.Daemon

// Metrics is the /metrics telemetry snapshot.
type Metrics = idaemon.Metrics

// FlowMetrics aggregates flow accounting across shards.
type FlowMetrics = idaemon.FlowMetrics

// ShardMetrics is one shard's engine accounting.
type ShardMetrics = idaemon.ShardMetrics

// SocketMetrics counts the shard sockets' traffic, summed over the
// shards.
type SocketMetrics = idaemon.SocketMetrics

// LoadConfig drives RunLoad's concurrent flows against a daemon.
type LoadConfig = idaemon.LoadConfig

// LoadResult summarizes one loadgen run.
type LoadResult = idaemon.LoadResult

// New binds a daemon's sockets and builds its shards; call Start on the
// result to begin serving and Shutdown to drain.
func New(cfg Config) (*Daemon, error) { return idaemon.New(cfg) }

// RunLoad submits cfg.Flows concurrent flows against a running daemon
// from one client socket, with bounded per-flow retries, and collects
// every result.
func RunLoad(cfg LoadConfig) (LoadResult, error) { return idaemon.RunLoad(cfg) }
