//go:build unix

package daemon

import (
	"context"
	"hash/crc32"
	"math/rand"
	"net"
	"syscall"
	"testing"
	"time"

	"spinal"
)

// BenchmarkDaemonSaturated measures spinald's wall-clock throughput at
// the paper's operating point: a 2-shard daemon (DefaultParams, B=256,
// 10 dB) serves 64-byte flows over loopback, with 16 kept outstanding
// in a closed loop — each record that comes back sends the next
// submission. One op is one delivered flow. It reports flows/s and
// cores, the process CPU time (daemon and client) over wall time, which
// shows whether both shards keep a core busy: a shard that waits for
// another shard's codec work lowers both numbers, where the engine
// benchmarks, which run one engine, cannot see it.
//
// The client runs in the daemon's process: its goroutine shares the two
// Ps with the two shards, so flows/s mixes the Go scheduling of the
// client with the daemon's own cost, and a change that keeps the shards
// busier can read slower here. bench/'s workloads drive spinald from a
// separate client process; they are the daemon-only measure.
func BenchmarkDaemonSaturated(b *testing.B) {
	const outstanding = 16
	d, err := New(Config{Shards: 2, SNRdB: 10, Seed: 1, Params: spinal.DefaultParams()})
	if err != nil {
		b.Fatal(err)
	}
	d.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	}()
	client, err := net.DialUDP("udp", nil, d.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	// Connection IDs 1..16 spread evenly over the two shards; each conn
	// numbers its submissions, so every flow is a fresh (conn, seq).
	payloads := make([][]byte, outstanding+1)
	sums := make([]uint32, outstanding+1)
	rng := rand.New(rand.NewSource(1))
	for c := 1; c <= outstanding; c++ {
		payloads[c] = make([]byte, 64)
		rng.Read(payloads[c])
		sums[c] = crc32.ChecksumIEEE(payloads[c])
	}
	next := make([]uint32, outstanding+1)
	var sent int
	submit := func(conn uint32) {
		client.Write(appendSubmit(nil, conn, next[conn], 0, payloads[conn]))
		next[conn]++
		sent++
	}
	buf := make([]byte, 64<<10)
	// run keeps 16 flows outstanding until n have resolved.
	run := func(n int) {
		sent = 0
		for c := 1; c <= min(outstanding, n); c++ {
			submit(uint32(c))
		}
		for done := 0; done < n; {
			client.SetReadDeadline(time.Now().Add(10 * time.Second))
			m, err := client.Read(buf)
			if err != nil {
				b.Fatalf("no record after %d of %d flows: %v", done, n, err)
			}
			recs, err := parseBatch(buf[:m])
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range recs {
				if r.status != StatusDelivered || r.checksum != sums[r.conn] {
					b.Fatalf("flow (%d, %d): status %d, checksum %#x want %#x", r.conn, r.seq, r.status, r.checksum, sums[r.conn])
				}
				done++
				if sent < n {
					submit(r.conn)
				}
			}
		}
	}
	run(2 * outstanding) // warm every shard's decoder

	cpu0 := cpuTime(b)
	b.ResetTimer()
	start := time.Now()
	run(b.N)
	wall := time.Since(start)
	b.StopTimer()
	cpu := cpuTime(b) - cpu0
	b.ReportMetric(float64(b.N)/wall.Seconds(), "flows/s")
	b.ReportMetric(cpu.Seconds()/wall.Seconds(), "cores")
}

// cpuTime reports the process's user plus system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
