// Command spinald serves spinal-coded link transfers on one UDP port:
// clients submit datagrams (spinalcat -loadgen speaks the protocol),
// each is carried across a simulated AWGN channel by one of N per-core
// shards, and the outcome — delivery status, byte count, CRC-32,
// forward and ack airtime — returns in batched result datagrams. Each
// shard runs on one goroutine that reads its own socket, runs its link
// engine's codec work and writes its own results; on Linux the kernel
// steers each connection ID to its shard's socket. An optional HTTP endpoint
// exports per-shard engine counters and socket counters as JSON at /metrics.
//
// SIGTERM or SIGINT drains gracefully: new submissions are rejected
// with a typed status, in-flight flows flush to completion (bounded by
// -drain-timeout), and a final report goes to stderr ending in
// "drained cleanly".
//
//	spinald -listen 127.0.0.1:7447 -telemetry 127.0.0.1:7448 -snr 10
//	spinalcat -loadgen 127.0.0.1:7447 -flows 256 -size 64
//	curl -s http://127.0.0.1:7448/metrics | jq .flows
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spinal"
	"spinal/daemon"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spinald: ")
	var (
		listen       = flag.String("listen", "127.0.0.1:7447", "UDP address to serve")
		telemetry    = flag.String("telemetry", "", "HTTP address for /metrics and /healthz (empty = off)")
		shards       = flag.Int("shards", 0, "per-core shards, each reading its own socket and running its own link engine on one goroutine: the number of cores spinald uses (0 = GOMAXPROCS; Linux only, other systems run one shard)")
		snrDB        = flag.Float64("snr", 10, "simulated AWGN SNR each served flow crosses, in dB")
		beam         = flag.Int("b", 256, "decoder beam width B")
		seed         = flag.Int64("seed", 1, "channel noise seed")
		sched        = flag.String("sched", "", "flow admission scheduler: rr (default) or dwfq, honoring each submission's wire weight")
		doneCache    = flag.Int("done-cache", 0, "per-shard resolved-flow replay cache, the idempotence window (0 = 8192)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "bound on the graceful drain after SIGTERM")
	)
	flag.Parse()

	p := spinal.DefaultParams()
	p.B = *beam
	d, err := daemon.New(daemon.Config{
		Listen:    *listen,
		Telemetry: *telemetry,
		Shards:    *shards,
		Params:    p,
		SNRdB:     *snrDB,
		Seed:      *seed,
		Scheduler: *sched,
		DoneCache: *doneCache,
		Report:    os.Stderr,
	})
	if err != nil {
		log.Fatal(err)
	}
	d.Start()
	log.Printf("serving on %s (B=%d, %.1f dB)", d.Addr(), p.B, *snrDB)
	if addr := d.TelemetryAddr(); addr != "" {
		log.Printf("telemetry on http://%s/metrics", addr)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	sig := <-sigCh
	log.Printf("%s: draining (up to %v)", sig, *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
}
