// Package daemon is spinald's engine room: a UDP-facing service that
// carries client datagrams across per-core sharded spinal link engines —
// the library turned into a deployable system, modeled on the NDN-DPDK
// service-daemon shape (one socket, per-core workers, batched I/O,
// graceful drain, a telemetry endpoint).
//
// One receive loop owns the socket: it parses submissions, dedups
// retries, and demuxes them by connection ID into per-shard ingress
// queues. Each shard (N ≈ GOMAXPROCS) owns an independent link.Session
// whose codec work runs on one CodecPool shared across every shard, so a
// flow finds warmed-up decoders no matter which shard serves it. Resolved
// flows leave through a batching egress writer that aggregates result
// records per client address into single datagrams. SIGTERM (via
// Shutdown) drains: new submissions are rejected with a typed status,
// in-flight blocks flush, the egress empties, and a final report is
// written.
//
// Everything is deterministic given the config seed: each flow's
// simulated channel is seeded from its (connection, submission) identity
// alone, so per-flow symbol spend does not depend on arrival order or
// shard interleaving — the property the goodput-vs-flows experiment's
// monotonicity assertion stands on.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spinal"
	"spinal/link"
)

// Daemon states.
const (
	stateRunning int32 = iota
	stateDraining
	stateStopped
)

// recvTick is the receive loop's read-deadline granularity: the loop
// wakes at least this often to notice a state change instead of blocking
// in ReadFromUDP forever — the termination path the filetransfer example
// originally lacked.
const recvTick = 200 * time.Millisecond

// Config configures a daemon.
type Config struct {
	// Listen is the UDP address to serve on (default "127.0.0.1:0").
	Listen string
	// Telemetry is the HTTP address of the /metrics endpoint ("" = off).
	Telemetry string
	// Shards is the number of per-core link sessions (0 ⇒ GOMAXPROCS).
	// Connection IDs map to shards by ID mod Shards.
	Shards int
	// Params is the spinal code every shard runs (zero ⇒ DefaultParams).
	Params spinal.Params
	// SNRdB is the simulated AWGN channel each served flow crosses
	// (0 ⇒ 10 dB, the acceptance operating point).
	SNRdB float64
	// Seed drives every flow's channel noise, mixed with the flow's
	// (connection, submission) identity.
	Seed int64
	// CommonChannel switches every flow onto one shared noise
	// realization (seeded from Seed alone, identity ignored) — common
	// random numbers, the classic variance-reduction device. The
	// goodput-vs-flows experiment runs in this mode so the curve
	// isolates multiplexing gain from per-flow channel luck.
	CommonChannel bool
	// MaxBlockBits, MaxRounds and FrameSymbols pass through to each
	// shard's session (0 ⇒ engine defaults).
	MaxBlockBits int
	MaxRounds    int
	FrameSymbols int
	// QueueDepth is each shard's ingress queue capacity (0 ⇒ 1024).
	// A full queue drops the submission — the client's bounded retry
	// resubmits it — rather than blocking the socket loop.
	QueueDepth int
	// DoneCache bounds each shard's memory of resolved flows, the
	// idempotence window for retried submissions (0 ⇒ 8192). Beyond the
	// cap the oldest record is evicted FIFO and a very late retry is
	// served as a fresh flow — wasteful but still correct, since a flow's
	// channel seed and therefore its outcome are identity-derived.
	DoneCache int
	// Scheduler selects each shard's flow-admission scheduler: "" or
	// "rr" is the engine-default round-robin, "dwfq" is deficit-weighted
	// fair queuing honoring each submission's wire weight. New rejects
	// anything else.
	Scheduler string
	// BatchRecords caps result records per egress datagram (0 ⇒ 32).
	BatchRecords int
	// Faults, when non-nil, runs every served flow through the link
	// layer's deterministic fault injector (chaos service).
	Faults *link.FaultConfig
	// Report receives the drain summary (nil ⇒ discarded).
	Report io.Writer
}

func (c *Config) withDefaults() {
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Params == (spinal.Params{}) {
		c.Params = spinal.DefaultParams()
	}
	if c.SNRdB == 0 {
		c.SNRdB = 10
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.DoneCache <= 0 {
		c.DoneCache = 8192
	}
	if c.BatchRecords <= 0 {
		c.BatchRecords = 32
	}
	if c.Report == nil {
		c.Report = io.Discard
	}
}

// flowSeed derives a flow's channel seed from its identity alone, so a
// flow's noise sequence — and with it its symbol spend — is independent
// of arrival order, shard interleaving and retries. Under CommonChannel
// the identity is ignored and every flow draws the same realization.
func (c *Config) flowSeed(conn, seq uint32) int64 {
	if c.CommonChannel {
		return c.Seed
	}
	h := uint64(c.Seed) ^ uint64(conn)*0x9e3779b97f4a7c15 ^ uint64(seq)*0xff51afd7ed558ccd
	return int64(h)
}

// Daemon is a running spinald instance.
type Daemon struct {
	cfg    Config
	conn   *net.UDPConn
	pool   *link.CodecPool
	shards []*shard
	out    *egress

	state   atomic.Int32
	drainCh chan struct{} // closed at drain start; shards watch it

	shardWG sync.WaitGroup
	recvWG  sync.WaitGroup

	httpSrv *http.Server
	httpLn  net.Listener

	started time.Time

	// Socket-loop counters.
	datagramsIn    atomic.Int64
	parseErrors    atomic.Int64
	rejected       atomic.Int64
	ingressDropped atomic.Int64

	shutdownOnce sync.Once
	shutdownErr  error
}

// New binds the daemon's sockets and builds its shards; Start launches
// the loops.
func New(cfg Config) (*Daemon, error) {
	cfg.withDefaults()
	switch cfg.Scheduler {
	case "", "rr", "dwfq":
	default:
		return nil, fmt.Errorf("daemon: unknown scheduler %q (want rr or dwfq)", cfg.Scheduler)
	}
	addr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("daemon: resolve %s: %w", cfg.Listen, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("daemon: listen: %w", err)
	}
	d := &Daemon{
		cfg:     cfg,
		conn:    conn,
		pool:    link.NewCodecPool(cfg.Params, cfg.Shards),
		drainCh: make(chan struct{}),
		started: time.Now(),
	}
	d.out = newEgress(conn, cfg.BatchRecords)
	d.shards = make([]*shard, cfg.Shards)
	for i := range d.shards {
		sh, err := newShard(d, i)
		if err != nil {
			conn.Close()
			d.pool.Close()
			return nil, err
		}
		d.shards[i] = sh
	}
	if cfg.Telemetry != "" {
		ln, err := net.Listen("tcp", cfg.Telemetry)
		if err != nil {
			conn.Close()
			d.pool.Close()
			return nil, fmt.Errorf("daemon: telemetry listen: %w", err)
		}
		d.httpLn = ln
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(d.Metrics())
		})
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintln(w, stateName(d.state.Load()))
		})
		d.httpSrv = &http.Server{Handler: mux}
	}
	return d, nil
}

// Start launches the receive loop, the shard loops, the egress writer
// and (if configured) the telemetry server.
func (d *Daemon) Start() {
	d.out.start()
	for _, sh := range d.shards {
		d.shardWG.Add(1)
		go sh.loop()
	}
	d.recvWG.Add(1)
	go d.recvLoop()
	if d.httpSrv != nil {
		go d.httpSrv.Serve(d.httpLn)
	}
}

// Addr reports the bound UDP address.
func (d *Daemon) Addr() *net.UDPAddr { return d.conn.LocalAddr().(*net.UDPAddr) }

// TelemetryAddr reports the bound telemetry address ("" when off).
func (d *Daemon) TelemetryAddr() string {
	if d.httpLn == nil {
		return ""
	}
	return d.httpLn.Addr().String()
}

// recvLoop owns the socket's read side: parse, dedup happens per shard,
// demux by connection ID. The read deadline keeps the loop responsive
// to state changes — a socket loop must always have a termination path.
func (d *Daemon) recvLoop() {
	defer d.recvWG.Done()
	buf := make([]byte, 64<<10)
	for {
		d.conn.SetReadDeadline(time.Now().Add(recvTick))
		n, from, err := d.conn.ReadFromUDP(buf)
		if err != nil {
			if d.state.Load() == stateStopped {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			// The socket died underneath us outside a shutdown; nothing
			// to serve anymore.
			return
		}
		d.datagramsIn.Add(1)
		sub, err := parseSubmit(buf[:n])
		if err != nil {
			d.parseErrors.Add(1)
			continue
		}
		if d.state.Load() != stateRunning {
			// Draining: stop accepting, but answer — the client learns
			// immediately instead of burning its retry budget.
			d.rejected.Add(1)
			d.out.send(from, record{
				conn: sub.conn, seq: sub.seq, status: StatusRejected,
			})
			continue
		}
		sh := d.shards[int(sub.conn)%len(d.shards)]
		msg := ingressMsg{
			conn:   sub.conn,
			seq:    sub.seq,
			weight: sub.weight,
			// The read buffer is reused; the shard owns a copy.
			payload: append([]byte(nil), sub.payload...),
			from:    from,
		}
		select {
		case sh.in <- msg:
		default:
			// Backpressure: shed at the socket rather than stall every
			// other shard; the client's bounded retry recovers.
			d.ingressDropped.Add(1)
		}
	}
}

// Shutdown drains the daemon: reject new submissions, flush in-flight
// flows, empty the egress, stop the loops, report. It is idempotent;
// ctx bounds how long the drain may take (expired, the daemon stops
// anyway and Shutdown reports the flows it abandoned).
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.shutdownOnce.Do(func() { d.shutdownErr = d.shutdown(ctx) })
	return d.shutdownErr
}

func (d *Daemon) shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	d.state.CompareAndSwap(stateRunning, stateDraining)
	close(d.drainCh)

	shardsDone := make(chan struct{})
	go func() {
		d.shardWG.Wait()
		close(shardsDone)
	}()
	var drainErr error
	select {
	case <-shardsDone:
	case <-ctx.Done():
		abandoned := 0
		for _, sh := range d.shards {
			abandoned += sh.sess.Active()
		}
		drainErr = fmt.Errorf("daemon: drain timed out with %d flows in flight: %w",
			abandoned, ctx.Err())
	}

	// Stop the socket loop, then flush and stop the egress writer (the
	// shards and the socket loop are its only producers).
	d.state.Store(stateStopped)
	d.conn.SetReadDeadline(time.Now())
	d.recvWG.Wait()
	d.out.stop()
	d.conn.Close()
	if d.httpSrv != nil {
		d.httpSrv.Close()
	}
	if drainErr == nil {
		// Shards closed their sessions; now the shared pool.
		d.pool.Close()
	}
	d.report(drainErr)
	return drainErr
}

// report writes the drain summary.
func (d *Daemon) report(drainErr error) {
	m := d.Metrics()
	fmt.Fprintf(d.cfg.Report,
		"spinald: served %d flows (%d delivered, %d outages, %d rejected) over %d shards\n",
		m.Flows.Admitted, m.Flows.Delivered, m.Flows.Outaged, m.Socket.Rejected,
		len(d.shards))
	fmt.Fprintf(d.cfg.Report,
		"spinald: %d symbols (+%d ack), egress %d records in %d datagrams (%.1f records/write)\n",
		m.Flows.Symbols, m.Flows.AckSymbols,
		m.Socket.RecordsOut, m.Socket.DatagramsOut, m.Socket.BatchingFactor)
	if drainErr != nil {
		fmt.Fprintf(d.cfg.Report, "spinald: drain FAILED: %v\n", drainErr)
	} else {
		fmt.Fprintf(d.cfg.Report, "spinald: drained cleanly\n")
	}
}

func stateName(s int32) string {
	switch s {
	case stateRunning:
		return "running"
	case stateDraining:
		return "draining"
	default:
		return "stopped"
	}
}

// Metrics is the telemetry snapshot the /metrics endpoint serves as
// JSON: per-shard engine accounting, the shared codec pool's
// construction counters, and socket/egress counters.
type Metrics struct {
	State         string         `json:"state"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Flows         FlowMetrics    `json:"flows"`
	Shards        []ShardMetrics `json:"shards"`
	Pool          PoolMetrics    `json:"pool"`
	Socket        SocketMetrics  `json:"socket"`
}

// FlowMetrics aggregates flow accounting across shards.
type FlowMetrics struct {
	Admitted   int64 `json:"admitted"`
	Active     int   `json:"active"`
	Delivered  int64 `json:"delivered"`
	Outaged    int64 `json:"outaged"`
	Bytes      int64 `json:"bytes_delivered"`
	Symbols    int64 `json:"symbols_sent"`
	AckSymbols int64 `json:"ack_symbols"`
}

// ShardMetrics is one shard's engine accounting. QueueLen/QueueCap
// snapshot the ingress queue (the backpressure signal behind
// ingress_dropped); the Sched* counters mirror the shard session's
// scheduler accounting and stay zero under the default round-robin.
type ShardMetrics struct {
	Shard           int   `json:"shard"`
	Active          int   `json:"active"`
	Admitted        int64 `json:"admitted"`
	Delivered       int64 `json:"delivered"`
	Outaged         int64 `json:"outaged"`
	DupSubmits      int64 `json:"dup_submits"`
	Replays         int64 `json:"result_replays"`
	Bytes           int64 `json:"bytes_delivered"`
	Symbols         int64 `json:"symbols_sent"`
	AckSymbols      int64 `json:"ack_symbols"`
	Retransmissions int64 `json:"retransmissions"`
	BatchesRejected int64 `json:"batches_rejected"`
	FrameFaults     int64 `json:"frame_faults"`
	AckFaults       int64 `json:"ack_faults"`
	QueueLen        int   `json:"queue_len"`
	QueueCap        int   `json:"queue_cap"`
	SchedQuanta     int64 `json:"sched_quanta_granted,omitempty"`
	SchedAdmitted   int64 `json:"sched_symbols_admitted,omitempty"`
	SchedAckCharged int64 `json:"sched_ack_symbols_charged,omitempty"`
	SchedDeadlines  int64 `json:"sched_deadline_misses,omitempty"`
	SchedDeficit    int64 `json:"sched_deficit_outstanding,omitempty"`
}

// PoolMetrics is the shared codec pool's reuse telemetry.
type PoolMetrics struct {
	Shards        int   `json:"shards"`
	DecodersBuilt int64 `json:"decoders_built"`
}

// SocketMetrics counts the socket loop and the batching egress.
type SocketMetrics struct {
	DatagramsIn    int64   `json:"datagrams_in"`
	ParseErrors    int64   `json:"parse_errors"`
	Rejected       int64   `json:"rejected"`
	IngressDropped int64   `json:"ingress_dropped"`
	DatagramsOut   int64   `json:"datagrams_out"`
	RecordsOut     int64   `json:"records_out"`
	BatchingFactor float64 `json:"batching_factor"`
}

// Metrics snapshots the daemon's counters; safe to call concurrently
// with the serving loops.
func (d *Daemon) Metrics() Metrics {
	m := Metrics{
		State:         stateName(d.state.Load()),
		UptimeSeconds: time.Since(d.started).Seconds(),
		Socket: SocketMetrics{
			DatagramsIn:    d.datagramsIn.Load(),
			ParseErrors:    d.parseErrors.Load(),
			Rejected:       d.rejected.Load(),
			IngressDropped: d.ingressDropped.Load(),
			DatagramsOut:   d.out.datagrams.Load(),
			RecordsOut:     d.out.records.Load(),
		},
	}
	if m.Socket.DatagramsOut > 0 {
		m.Socket.BatchingFactor =
			float64(m.Socket.RecordsOut) / float64(m.Socket.DatagramsOut)
	}
	ps := d.pool.Stats()
	m.Pool = PoolMetrics{
		Shards:        d.pool.Shards(),
		DecodersBuilt: ps.DecodersBuilt,
	}
	for _, sh := range d.shards {
		sm := sh.metrics()
		m.Shards = append(m.Shards, sm)
		m.Flows.Admitted += sm.Admitted
		m.Flows.Active += sm.Active
		m.Flows.Delivered += sm.Delivered
		m.Flows.Outaged += sm.Outaged
		m.Flows.Bytes += sm.Bytes
		m.Flows.Symbols += sm.Symbols
		m.Flows.AckSymbols += sm.AckSymbols
	}
	return m
}
