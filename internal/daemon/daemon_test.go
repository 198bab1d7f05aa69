package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
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
	// Every flow is one 528-bit block, and the shard sessions share the
	// pool's warm decoders: at most one decoder per pool shard.
	if m.Pool.DecodersBuilt == 0 || m.Pool.DecodersBuilt > int64(m.Pool.Shards) {
		t.Fatalf("pool built %d decoders for %d shards and one block size", m.Pool.DecodersBuilt, m.Pool.Shards)
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

// TestDaemonSchedulerConfig pins the scheduler/queue config plumbing: an
// unknown scheduler name is rejected at New, a dwfq daemon serves
// weighted submissions and exports nonzero scheduler counters plus the
// configured ingress queue capacity, and a tiny done-cache (far below
// the flow count) still serves every flow — eviction costs replay
// efficiency, never correctness.
func TestDaemonSchedulerConfig(t *testing.T) {
	if _, err := New(Config{Scheduler: "wfq2"}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	d, _ := startDaemon(t, Config{Shards: 1, SNRdB: 10, Seed: 13,
		Scheduler: "dwfq", QueueDepth: 64, DoneCache: 4})
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
	if sm.QueueCap != 64 {
		t.Fatalf("queue cap %d, want the configured 64", sm.QueueCap)
	}
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
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.State != "running" || len(m.Shards) != 2 || m.Pool.Shards != 2 {
		t.Fatalf("telemetry shape: %+v", m)
	}
	if m.Flows.Delivered != 4 || m.Socket.DatagramsIn == 0 {
		t.Fatalf("telemetry counters: %+v", m)
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
	// probe lands); the recv loop must now answer with a rejection.
	d.state.Store(stateDraining)
	client.Write(appendSubmit(nil, 77, 0, 0, []byte("late")))
	rec := readOneRecord(t, client)
	if rec.conn != 77 || rec.status != StatusRejected {
		t.Fatalf("mid-drain submission got %+v, want StatusRejected", rec)
	}
	d.state.Store(stateRunning) // let Cleanup shut down normally
}
