package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"spinal"
)

// quickParams keeps the daemon tests' codec work cheap; they exercise
// the serving machinery, not the code's error performance.
func quickParams() spinal.Params {
	p := spinal.DefaultParams()
	p.B = 8
	return p
}

func startDaemon(t *testing.T, cfg Config) (*Daemon, *bytes.Buffer) {
	t.Helper()
	var report bytes.Buffer
	if cfg.Params == (spinal.Params{}) {
		cfg.Params = quickParams()
	}
	cfg.Report = &report
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	})
	return d, &report
}

func TestWireRoundTrip(t *testing.T) {
	payload := []byte("sixty-four bytes of datagram payload for the wire round trip!!")
	dg := appendSubmit(nil, 7, 42, 4, payload)
	sub, err := parseSubmit(dg)
	if err != nil {
		t.Fatal(err)
	}
	if sub.conn != 7 || sub.seq != 42 || sub.weight != 4 || !bytes.Equal(sub.payload, payload) {
		t.Fatalf("submit round trip mangled: %+v", sub)
	}

	recs := []record{
		{conn: 1, seq: 2, shard: 3, status: StatusDelivered, bytes: 64, symbols: 500, ackSymbols: 20, checksum: 0xdeadbeef},
		{conn: 9, seq: 9, status: StatusOutage, symbols: 4096},
	}
	got, err := parseBatch(appendBatch(nil, recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != recs[0] || got[1] != recs[1] {
		t.Fatalf("batch round trip mangled: %+v", got)
	}

	for name, bad := range map[string][]byte{
		"empty":           {},
		"wrong kind":      {0xff, 0, 0, 0, 0, 0, 0, 0, 0},
		"short submit":    {kindSubmit, 1, 2},
		"truncated batch": appendBatch(nil, recs)[:10],
		"padded batch":    append(appendBatch(nil, recs), 0),
		"count mismatch":  {kindBatch, 5, 0},
	} {
		if _, err := parseSubmit(bad); err == nil {
			if _, err := parseBatch(bad); err == nil {
				t.Errorf("%s: both parsers accepted hostile bytes", name)
			}
		}
	}
}

// TestDaemonServes256Flows is the acceptance run: 256 concurrent flows
// through one UDP socket at 10 dB must all deliver, none outage, and the
// daemon must drain cleanly afterwards.
func TestDaemonServes256Flows(t *testing.T) {
	if testing.Short() {
		t.Skip("256-flow soak")
	}
	d, report := startDaemon(t, Config{Shards: 4, SNRdB: 10, Seed: 42})
	res, err := RunLoad(LoadConfig{
		Addr: d.Addr().String(), Flows: 256, Size: 64, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 256 || res.Outaged != 0 || res.Failed != 0 {
		t.Fatalf("acceptance load: %v", res)
	}
	if res.Corrupted != 0 {
		t.Fatalf("%d delivered flows failed checksum", res.Corrupted)
	}
	if res.AggregateGoodput <= 0 {
		t.Fatalf("no goodput measured: %v", res)
	}
	m := d.Metrics()
	if m.Flows.Delivered != 256 || m.Flows.Outaged != 0 {
		t.Fatalf("daemon accounting disagrees: %+v", m.Flows)
	}
	// Every flow is one 528-bit block, and each shard's one decoder slot
	// keeps its warm decoder: at most one decoder per shard.
	if len(m.Shards) != 4 {
		t.Fatalf("telemetry reports %d shards, want 4", len(m.Shards))
	}
	var built int64
	for _, sm := range m.Shards {
		if sm.DecodersBuilt > 1 {
			t.Fatalf("shard %d built %d decoders for one block size", sm.Shard, sm.DecodersBuilt)
		}
		built += sm.DecodersBuilt
	}
	if built == 0 {
		t.Fatal("no shard built a decoder")
	}
	// 256 results over at most a handful of client addresses must have
	// batched: strictly fewer egress datagrams than records.
	if m.Socket.DatagramsOut >= m.Socket.RecordsOut {
		t.Fatalf("egress never batched: %+v", m.Socket)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "drained cleanly") {
		t.Fatalf("drain report missing: %q", report.String())
	}
}

// TestDaemonDrainFlushesInFlight pins the SIGTERM path: submissions in
// flight when Shutdown lands are served to completion, their records
// reach the client, and the report says so.
func TestDaemonDrainFlushesInFlight(t *testing.T) {
	d, report := startDaemon(t, Config{Shards: 2, SNRdB: 10, Seed: 3})
	client, err := net.DialUDP("udp", nil, d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const n = 8
	payload := bytes.Repeat([]byte{0xa5}, 48)
	for i := 0; i < n; i++ {
		client.Write(appendSubmit(nil, uint32(i+1), 0, 0, payload))
	}
	// Wait until every submission is admitted, then drain under it.
	deadline := time.Now().Add(10 * time.Second)
	for d.Metrics().Flows.Admitted < n {
		if time.Now().After(deadline) {
			t.Fatalf("daemon admitted %d/%d flows", d.Metrics().Flows.Admitted, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := report.String(); !strings.Contains(got, "drained cleanly") {
		t.Fatalf("report: %q", got)
	}
	if m := d.Metrics(); m.Flows.Delivered != n || m.State != "stopped" {
		t.Fatalf("post-drain metrics: %+v", m.Flows)
	}

	// Every record must have been flushed to the wire before the socket
	// closed.
	seen := map[uint32]bool{}
	buf := make([]byte, 64<<10)
	for len(seen) < n {
		client.SetReadDeadline(time.Now().Add(2 * time.Second))
		nr, err := client.Read(buf)
		if err != nil {
			t.Fatalf("drained %d/%d records before the socket went quiet", len(seen), n)
		}
		recs, err := parseBatch(buf[:nr])
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.status != StatusDelivered {
				t.Fatalf("flow %d resolved %d during drain", r.conn, r.status)
			}
			seen[r.conn] = true
		}
	}
}

// TestDaemonIdempotentSubmits pins the dedup contract retried clients
// rely on: duplicate in-flight submissions collapse onto one flow, and a
// retry after resolution replays the cached record instead of re-serving
// the flow.
func TestDaemonIdempotentSubmits(t *testing.T) {
	d, _ := startDaemon(t, Config{Shards: 1, SNRdB: 10, Seed: 5})
	client, err := net.DialUDP("udp", nil, d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	sub := appendSubmit(nil, 5, 9, 0, []byte("idempotence probe payload"))
	for i := 0; i < 3; i++ {
		client.Write(sub)
	}
	first := readOneRecord(t, client)
	if first.conn != 5 || first.seq != 9 || first.status != StatusDelivered {
		t.Fatalf("unexpected record %+v", first)
	}
	if m := d.Metrics(); m.Flows.Admitted != 1 {
		t.Fatalf("3 submissions admitted %d flows", m.Flows.Admitted)
	}

	// A late retry is answered from the done cache with the same record.
	client.Write(sub)
	replay := readOneRecord(t, client)
	if replay != first {
		t.Fatalf("replayed record differs: %+v vs %+v", replay, first)
	}
	if m := d.Metrics(); m.Flows.Admitted != 1 || m.Shards[0].Replays == 0 {
		t.Fatalf("late retry re-served the flow: %+v", m.Shards[0])
	}
}

// readOneRecord reads batches until one record arrives.
func readOneRecord(t *testing.T, client *net.UDPConn) record {
	t.Helper()
	buf := make([]byte, 64<<10)
	client.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		n, err := client.Read(buf)
		if err != nil {
			t.Fatalf("no record: %v", err)
		}
		recs, err := parseBatch(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) > 0 {
			return recs[0]
		}
	}
}

// TestDaemonGoodputMonotone pins the multiplexing property the
// goodput-vs-flows experiment asserts: under common random numbers, one
// daemon's aggregate goodput is monotone nondecreasing in the flow count
// up to the shard count (each added flow lands on an idle shard and
// spends exactly the same airtime).
func TestDaemonGoodputMonotone(t *testing.T) {
	d, _ := startDaemon(t, Config{Shards: 4, SNRdB: 10, Seed: 11, CommonChannel: true})
	var prev float64
	for i, flows := range []int{1, 2, 4} {
		res, err := RunLoad(LoadConfig{
			Addr: d.Addr().String(), Flows: flows, Size: 64,
			Seq: uint32(i), Seed: 23, CommonPayload: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered != flows {
			t.Fatalf("%d flows: %v", flows, res)
		}
		if res.AggregateGoodput < prev {
			t.Fatalf("goodput fell from %.4f to %.4f at %d flows",
				prev, res.AggregateGoodput, flows)
		}
		prev = res.AggregateGoodput
	}
}

// TestDaemonSchedulerConfig pins the scheduler config plumbing: an
// unknown scheduler name is rejected at New, a dwfq daemon serves
// weighted submissions and exports nonzero scheduler counters, and a
// tiny done-cache (far below the flow count) still serves every flow —
// eviction costs replay efficiency, never correctness.
func TestDaemonSchedulerConfig(t *testing.T) {
	if _, err := New(Config{Scheduler: "wfq2"}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	d, _ := startDaemon(t, Config{Shards: 1, SNRdB: 10, Seed: 13,
		Scheduler: "dwfq", DoneCache: 4})
	res, err := RunLoad(LoadConfig{
		Addr: d.Addr().String(), Flows: 8, Size: 48, Seed: 3, Weight: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 8 || res.Corrupted != 0 {
		t.Fatalf("weighted load: %v", res)
	}
	sm := d.Metrics().Shards[0]
	if sm.SchedQuanta == 0 || sm.SchedAdmitted == 0 {
		t.Fatalf("dwfq scheduler counters silent: %+v", sm)
	}
}

// TestDaemonTelemetry smoke-tests the /metrics endpoint's JSON schema.
func TestDaemonTelemetry(t *testing.T) {
	d, _ := startDaemon(t, Config{Shards: 2, Telemetry: "127.0.0.1:0", SNRdB: 10})
	res, err := RunLoad(LoadConfig{Addr: d.Addr().String(), Flows: 4, Size: 32, Seed: 1})
	if err != nil || res.Delivered != 4 {
		t.Fatalf("warmup load: %v %v", res, err)
	}

	resp, err := http.Get("http://" + d.TelemetryAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.State != "running" || len(m.Shards) != 2 ||
		!bytes.Contains(body, []byte(`"decoders_built"`)) || bytes.Contains(body, []byte(`"pool"`)) {
		t.Fatalf("telemetry shape: %s", body)
	}
	if m.Flows.Delivered != 4 || m.Socket.DatagramsIn == 0 {
		t.Fatalf("telemetry counters: %+v", m)
	}
	// Each shard served flows of one block size on one codec goroutine,
	// so it built exactly one decoder if it served any; and the flows
	// rollup is the sum of the shards.
	var sum FlowMetrics
	for _, sm := range m.Shards {
		if want := min(sm.Delivered, 1); sm.DecodersBuilt != want {
			t.Errorf("shard %d delivered %d flows and built %d decoders, want %d",
				sm.Shard, sm.Delivered, sm.DecodersBuilt, want)
		}
		sum.Admitted += sm.Admitted
		sum.Active += sm.Active
		sum.Delivered += sm.Delivered
		sum.Outaged += sm.Outaged
		sum.Bytes += sm.Bytes
		sum.Symbols += sm.Symbols
		sum.AckSymbols += sm.AckSymbols
	}
	if sum != m.Flows {
		t.Errorf("flows rollup %+v is not the sum of the shards %+v", m.Flows, sum)
	}

	health, err := http.Get("http://" + d.TelemetryAddr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer health.Body.Close()
	var state bytes.Buffer
	state.ReadFrom(health.Body)
	if strings.TrimSpace(state.String()) != "running" {
		t.Fatalf("healthz: %q", state.String())
	}
}

// TestDaemonRejectsWhileDraining pins the drain-time contract: a
// submission arriving mid-drain is answered with StatusRejected instead
// of being silently dropped or admitted.
func TestDaemonRejectsWhileDraining(t *testing.T) {
	d, _ := startDaemon(t, Config{Shards: 1, SNRdB: 10})
	client, err := net.DialUDP("udp", nil, d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Flip the state by hand (Shutdown would close the socket before the
	// probe lands); the shard must now answer with a rejection.
	d.state.Store(stateDraining)
	client.Write(appendSubmit(nil, 77, 0, 0, []byte("late")))
	rec := readOneRecord(t, client)
	if rec.conn != 77 || rec.status != StatusRejected {
		t.Fatalf("mid-drain submission got %+v, want StatusRejected", rec)
	}
	d.state.Store(stateRunning) // let Cleanup shut down normally
}

// TestDoneCacheRing: the done cache keeps the newest DoneCache records,
// evicts the oldest first, and its ring of keys never outgrows the cap
// however many flows resolve — so the cache's memory stops growing once
// it is full.
func TestDoneCacheRing(t *testing.T) {
	for _, limit := range []int{1, 5, 300, 1000} {
		sh := &shard{d: &Daemon{cfg: Config{DoneCache: limit}}, id: 3, done: make(map[uint64]doneRec)}
		for i := uint32(0); i < uint32(3*limit+7); i++ {
			sh.remember(flowKey(1, i), record{conn: 1, seq: i, shard: 3, status: StatusDelivered, bytes: i})
			if len(sh.done) > limit || len(sh.doneRing) > limit || cap(sh.doneRing) > limit {
				t.Fatalf("limit %d after %d records: %d cached, ring len %d cap %d",
					limit, i+1, len(sh.done), len(sh.doneRing), cap(sh.doneRing))
			}
			oldest := int(i) - limit + 1
			if _, ok := sh.done[flowKey(1, uint32(oldest-1))]; oldest > 0 && ok {
				t.Fatalf("limit %d: record %d not evicted after %d", limit, oldest-1, i)
			}
			if dr, ok := sh.done[flowKey(1, uint32(max(oldest, 0)))]; !ok || int(dr.bytes) != max(oldest, 0) {
				t.Fatalf("limit %d: oldest kept record %d missing after %d", limit, max(oldest, 0), i)
			}
		}
	}
}

// TestDaemonLadderCounters: at the paper's B=256 every decode attempt
// begins on the narrow beam rung, and the shard metrics total the
// attempts, narrow attempts and escalations of the flows served.
func TestDaemonLadderCounters(t *testing.T) {
	d, _ := startDaemon(t, Config{Shards: 2, SNRdB: 10, Seed: 17, Params: spinal.DefaultParams()})
	res, err := RunLoad(LoadConfig{Addr: d.Addr().String(), Flows: 8, Size: 64, Seed: 5})
	if err != nil || res.Delivered != 8 || res.Corrupted != 0 {
		t.Fatalf("load: %v %v", res, err)
	}
	var attempts, narrow, escalations int64
	for _, sm := range d.Metrics().Shards {
		attempts += sm.DecodeAttempts
		narrow += sm.NarrowAttempts
		escalations += sm.Escalations
	}
	if attempts < 8 || narrow != attempts || escalations > narrow {
		t.Fatalf("ladder counters: %d attempts, %d narrow, %d escalations", attempts, narrow, escalations)
	}
}

// TestDaemonAbsorbsSubmitBurst: 1 000 submissions sent at once wait in
// the shard sockets' receive buffers while the shards catch up, so
// every one is answered without a client resubmit. The kernel's default
// buffer (208 KiB on Linux) held about 560 of them. Where the kernel
// grants too small a buffer for 1 000 datagrams (net.core.rmem_max left
// at its default), the test skips.
func TestDaemonAbsorbsSubmitBurst(t *testing.T) {
	if testing.Short() {
		t.Skip("1 000-flow burst")
	}
	const flows = 1000
	d, _ := startDaemon(t, Config{Shards: 2, SNRdB: 10, Seed: 9, Params: spinal.DefaultParams()})
	// A small datagram costs the kernel well under 1 KiB of buffer.
	if got := d.Metrics().Socket.RcvBufBytes; got < flows<<10 {
		t.Skipf("the kernel granted a %d-byte receive buffer; %d datagrams need about %d", got, flows, flows<<10)
	}
	res, err := RunLoad(LoadConfig{
		Addr: d.Addr().String(), Flows: flows, Size: 64, Seed: 3,
		// Longer than the whole run takes, so only a lost submission
		// triggers a resubmit.
		Timeout: time.Minute, Retries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != flows || res.Retries != 0 || res.Corrupted != 0 {
		t.Fatalf("burst of %d submissions: %v", flows, res)
	}
	if m := d.Metrics(); m.Socket.DatagramsIn != flows || m.Socket.KernelDrops != 0 {
		t.Fatalf("socket counters: %+v", m.Socket)
	}
}

// TestDaemonSteersByConn: every connection ID is served by shard
// conn mod N, although all of them arrive from one client socket (whose
// 4-tuple alone would put them all on one shard). 2 and 4 shards run
// the power-of-two steering program, 3 and 11 the general one; at 11
// each byte of the ID carries a different weight mod 11, so a program
// that assembled the bytes out of order would fail.
func TestDaemonSteersByConn(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("steering a socket group needs Linux")
	}
	for _, n := range []int{2, 3, 4, 11} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			d, _ := startDaemon(t, Config{Shards: n, SNRdB: 10, Seed: 19})
			client, err := net.DialUDP("udp", nil, d.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			// High conn bytes exercise the general program's assembly of
			// the whole little-endian ID.
			conns := map[uint32]bool{}
			for i := range uint32(2 * n) {
				conns[i] = true
				conns[i|0x5a3c0100] = true
			}
			for conn := range conns {
				client.Write(appendSubmit(nil, conn, 1, 0, []byte("steer")))
			}
			buf := make([]byte, 64<<10)
			for len(conns) > 0 {
				client.SetReadDeadline(time.Now().Add(10 * time.Second))
				nr, err := client.Read(buf)
				if err != nil {
					t.Fatalf("%d records missing: %v", len(conns), err)
				}
				recs, err := parseBatch(buf[:nr])
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range recs {
					if r.status != StatusDelivered || int(r.shard) != int(r.conn%uint32(n)) {
						t.Fatalf("conn %#x: status %d from shard %d, want shard %d", r.conn, r.status, r.shard, r.conn%uint32(n))
					}
					delete(conns, r.conn)
				}
			}
		})
	}
}

// TestDaemonLeavesNoGoroutines: a daemon's only goroutines are its
// shards (and the telemetry server, off here); after Shutdown none is
// left.
func TestDaemonLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	d, err := New(Config{Shards: 2, Params: quickParams(), SNRdB: 10, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	if got := runtime.NumGoroutine(); got > before+2 {
		t.Errorf("a running 2-shard daemon has %d goroutines beyond the test's, want 2", got-before)
	}
	res, err := RunLoad(LoadConfig{Addr: d.Addr().String(), Flows: 8, Size: 32, Seed: 2})
	if err != nil || res.Delivered != 8 {
		t.Fatalf("load: %v %v", res, err)
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A joined shard goroutine may not have returned yet, and earlier
	// tests' idle HTTP connections may still be closing (the count can
	// fall below the starting one).
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		t.Fatalf("%d goroutines after Shutdown, %d before New", n, before)
	}
}

// TestDaemonDrainTimeoutStopsShards: a drain whose deadline has passed
// reports the flows it abandoned, and its shards stop after their
// current round instead of serving on.
func TestDaemonDrainTimeoutStopsShards(t *testing.T) {
	before := runtime.NumGoroutine()
	d, err := New(Config{Shards: 2, SNRdB: 10, Seed: 29, Params: spinal.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	client, err := net.DialUDP("udp", nil, d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// 16 KiB of B=256 decoding keeps both shards busy for far longer
	// than the test takes to cancel the drain.
	const flows = 16
	for i := range uint32(flows) {
		client.Write(appendSubmit(nil, i, 0, 0, bytes.Repeat([]byte{byte(i)}, 1024)))
	}
	for deadline := time.Now().Add(10 * time.Second); d.Metrics().Flows.Admitted < flows; {
		if time.Now().After(deadline) {
			t.Fatalf("daemon admitted %d/%d flows", d.Metrics().Flows.Admitted, flows)
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.Shutdown(ctx); err == nil || !strings.Contains(err.Error(), "drain timed out") {
		t.Fatalf("expired drain: %v", err)
	}
	if m := d.Metrics(); m.State != "stopped" || m.Flows.Delivered == flows {
		t.Fatalf("expired drain finished every flow: %+v", m.Flows)
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		t.Fatalf("%d goroutines after an expired drain, %d before New", n, before)
	}
}
