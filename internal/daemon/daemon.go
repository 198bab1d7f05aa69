// Package daemon is spinald's engine room: a UDP-facing service that
// carries client datagrams across per-core sharded spinal link engines —
// the library turned into a deployable system, modeled on the NDN-DPDK
// forwarder shape (per-core workers that run input, processing and
// output to completion, steered input, batched output, graceful drain,
// a telemetry endpoint).
//
// Each shard (N ≈ GOMAXPROCS) owns one UDP socket and one goroutine.
// On Linux the N sockets form an SO_REUSEPORT group on the daemon's
// port, and a classic-BPF program steers each submission to socket
// conn mod N, so every connection ID lands on one shard. The shard
// reads its socket between rounds, parses and dedups submissions,
// steps its own link.Session (codec work included) and writes each
// round's result records, batched per client address, from the same
// socket. No shard waits for another, so N shards keep N cores busy.
// SIGTERM (via Shutdown) drains: new submissions are rejected with a
// typed status, in-flight blocks flush and their records go out, and a
// final report is written.
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

// rcvBufBytes is the receive buffer the daemon asks for on each shard
// socket. A burst of submissions that arrives while the shard is
// stepping waits in this buffer, and the kernel drops what does not fit: Linux's
// default (208 KiB) held about 560 of 1 000 small submissions sent at
// once. The kernel may grant less than asked (SocketMetrics.RcvBufBytes
// reports what it granted).
const rcvBufBytes = 4 << 20

// Config configures a daemon.
type Config struct {
	// Listen is the UDP address to serve on (default "127.0.0.1:0").
	Listen string
	// Telemetry is the HTTP address of the /metrics endpoint ("" = off).
	Telemetry string
	// Shards is the number of per-core link sessions, each running its
	// socket I/O and codec work on its own goroutine, and so the number
	// of cores the daemon uses (0 ⇒ GOMAXPROCS). Connection IDs map to
	// shards by ID mod Shards. Steering needs Linux: other unix systems
	// run one shard on one socket whatever Shards asks for, and New
	// fails on systems that are not unix.
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
	if c.DoneCache <= 0 {
		c.DoneCache = 8192
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
	rcvbuf int // the receive buffer the kernel granted each socket, in bytes
	shards []*shard

	state atomic.Int32
	// flushed receives one send from each shard goroutine once its flows
	// have flushed in a drain (or it has stopped).
	flushed chan struct{}
	loops   int // shard goroutines Start launched
	shardWG sync.WaitGroup

	httpSrv *http.Server
	httpLn  net.Listener

	started time.Time

	// Socket counters, summed over the shards' sockets.
	datagramsIn  atomic.Int64
	parseErrors  atomic.Int64
	rejected     atomic.Int64
	datagramsOut atomic.Int64
	recordsOut   atomic.Int64

	shutdownOnce sync.Once
	shutdownErr  error
}

// New binds the daemon's sockets, one per shard, and builds its shards;
// Start launches the shard loops.
func New(cfg Config) (*Daemon, error) {
	cfg.withDefaults()
	switch cfg.Scheduler {
	case "", "rr", "dwfq":
	default:
		return nil, fmt.Errorf("daemon: unknown scheduler %q (want rr or dwfq)", cfg.Scheduler)
	}
	conns, err := listen(cfg.Listen, cfg.Shards)
	if err != nil {
		return nil, fmt.Errorf("daemon: listen %s: %w", cfg.Listen, err)
	}
	cfg.Shards = len(conns)
	d := &Daemon{
		cfg:     cfg,
		flushed: make(chan struct{}, len(conns)),
		started: time.Now(),
	}
	d.shards = make([]*shard, len(conns))
	for i, c := range conns {
		if d.rcvbuf, err = sizeReadBuffer(c, rcvBufBytes); err == nil {
			d.shards[i], err = newShard(d, i, c)
		}
		if err != nil {
			closeAll(conns)
			return nil, fmt.Errorf("daemon: shard %d: %w", i, err)
		}
	}
	if cfg.Telemetry != "" {
		ln, err := net.Listen("tcp", cfg.Telemetry)
		if err != nil {
			closeAll(conns)
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

// Start launches the shard loops and (if configured) the telemetry
// server.
func (d *Daemon) Start() {
	d.loops = len(d.shards)
	d.shardWG.Add(d.loops)
	for _, sh := range d.shards {
		go sh.loop()
	}
	if d.httpSrv != nil {
		go d.httpSrv.Serve(d.httpLn)
	}
}

// Addr reports the bound UDP address, which every shard socket shares.
func (d *Daemon) Addr() *net.UDPAddr { return d.shards[0].conn.LocalAddr().(*net.UDPAddr) }

// TelemetryAddr reports the bound telemetry address ("" when off).
func (d *Daemon) TelemetryAddr() string {
	if d.httpLn == nil {
		return ""
	}
	return d.httpLn.Addr().String()
}

// Shutdown drains the daemon: reject new submissions, flush in-flight
// flows and write their records, stop the shards, close the sockets,
// report. It is idempotent; ctx bounds how long the drain may take
// (expired, each shard stops after its current round and Shutdown
// reports the flows it abandoned).
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.shutdownOnce.Do(func() { d.shutdownErr = d.shutdown(ctx) })
	return d.shutdownErr
}

func (d *Daemon) shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	d.state.CompareAndSwap(stateRunning, stateDraining)
	// Idle shards are parked in a read: wake them to see the drain.
	d.wake()
	var drainErr error
	for n := 0; n < d.loops && drainErr == nil; n++ {
		select {
		case <-d.flushed:
		case <-ctx.Done():
			abandoned := 0
			for _, sh := range d.shards {
				abandoned += sh.sess.Active()
			}
			drainErr = fmt.Errorf("daemon: drain timed out with %d flows in flight: %w",
				abandoned, ctx.Err())
		}
	}

	// Until now every shard still answered late submissions with
	// StatusRejected. Stop them all, then close every socket together so
	// the steering program's socket indexes never shift mid-drain.
	d.state.Store(stateStopped)
	d.wake()
	d.shardWG.Wait()
	for _, sh := range d.shards {
		sh.conn.Close()
	}
	if d.httpSrv != nil {
		d.httpSrv.Close()
	}
	d.report(drainErr)
	return drainErr
}

// closeAll closes the sockets.
func closeAll(conns []*net.UDPConn) {
	for _, c := range conns {
		c.Close()
	}
}

// wake makes every shard's pending or next socket read return at once,
// so a parked shard looks at the daemon's state.
func (d *Daemon) wake() {
	for _, sh := range d.shards {
		sh.conn.SetReadDeadline(time.Now())
	}
}

// report writes the drain summary.
func (d *Daemon) report(drainErr error) {
	m := d.Metrics()
	fmt.Fprintf(d.cfg.Report,
		"spinald: served %d flows (%d delivered, %d outages, %d rejected) over %d shards\n",
		m.Flows.Admitted, m.Flows.Delivered, m.Flows.Outaged, m.Socket.Rejected,
		len(d.shards))
	fmt.Fprintf(d.cfg.Report,
		"spinald: %d symbols (+%d ack), %d records out in %d datagrams (%.1f records/write)\n",
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
// JSON: per-shard engine accounting, each shard read from its session's
// link.Metrics, their sum over the shards, and socket counters.
type Metrics struct {
	State         string         `json:"state"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Flows         FlowMetrics    `json:"flows"`
	Shards        []ShardMetrics `json:"shards"`
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

// ShardMetrics is one shard's engine and socket accounting. KernelDrops
// counts the submissions the kernel dropped at the shard's socket, as
// SocketMetrics.KernelDrops does for all of them; the Sched* counters
// mirror the shard session's scheduler accounting and stay zero under
// the default round-robin.
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
	// DecodeAttempts, NarrowAttempts and Escalations total the served
	// flows' block decode attempts, those begun on the decoder's narrow
	// beam rung, and the narrow rungs the CRC rejected (see link.Stats).
	DecodeAttempts int64 `json:"decode_attempts"`
	NarrowAttempts int64 `json:"narrow_attempts"`
	Escalations    int64 `json:"escalations"`
	// DecodersBuilt counts the decoders the shard's session built: one
	// per block size its one codec goroutine has decoded.
	DecodersBuilt int64 `json:"decoders_built"`
	KernelDrops   int64 `json:"kernel_drops"`
	// Deprecated: shards have no ingress queue; they read their own
	// sockets. QueueLen and QueueCap read 0.
	QueueLen int `json:"queue_len"`
	// Deprecated: see QueueLen.
	QueueCap        int   `json:"queue_cap"`
	SchedQuanta     int64 `json:"sched_quanta_granted,omitempty"`
	SchedAdmitted   int64 `json:"sched_symbols_admitted,omitempty"`
	SchedAckCharged int64 `json:"sched_ack_symbols_charged,omitempty"`
	SchedDeadlines  int64 `json:"sched_deadline_misses,omitempty"`
	SchedDeficit    int64 `json:"sched_deficit_outstanding,omitempty"`
}

// SocketMetrics counts the shard sockets' traffic, summed over the
// shards. RcvBufBytes is the receive buffer the kernel granted each
// socket (0 where it cannot be read back), and KernelDrops the
// submissions the kernel dropped before a shard read them, chiefly at a
// full receive buffer. KernelDrops is read from the live sockets on
// Linux; it is 0 elsewhere and once Shutdown has closed the sockets.
type SocketMetrics struct {
	DatagramsIn int64 `json:"datagrams_in"`
	ParseErrors int64 `json:"parse_errors"`
	Rejected    int64 `json:"rejected"`
	// Deprecated: nothing queues between the socket and a shard, so
	// nothing is dropped there; IngressDropped reads 0. A submission lost
	// at a full receive buffer counts in KernelDrops.
	IngressDropped int64   `json:"ingress_dropped"`
	DatagramsOut   int64   `json:"datagrams_out"`
	RecordsOut     int64   `json:"records_out"`
	BatchingFactor float64 `json:"batching_factor"`
	RcvBufBytes    int     `json:"rcvbuf_bytes"`
	KernelDrops    int64   `json:"kernel_drops"`
}

// Metrics snapshots the daemon's counters; safe to call concurrently
// with the serving loops.
func (d *Daemon) Metrics() Metrics {
	m := Metrics{
		State:         stateName(d.state.Load()),
		UptimeSeconds: time.Since(d.started).Seconds(),
		Socket: SocketMetrics{
			DatagramsIn:  d.datagramsIn.Load(),
			ParseErrors:  d.parseErrors.Load(),
			Rejected:     d.rejected.Load(),
			DatagramsOut: d.datagramsOut.Load(),
			RecordsOut:   d.recordsOut.Load(),
			RcvBufBytes:  d.rcvbuf,
		},
	}
	if m.Socket.DatagramsOut > 0 {
		m.Socket.BatchingFactor =
			float64(m.Socket.RecordsOut) / float64(m.Socket.DatagramsOut)
	}
	for _, sh := range d.shards {
		sm := sh.metrics()
		m.Shards = append(m.Shards, sm)
		m.Socket.KernelDrops += sm.KernelDrops
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
