// Command spinalcat pipes stdin through a spinal code: it segments the
// input into §6 code blocks, transmits each rateless over a simulated
// AWGN channel until its CRC verifies, and writes the decoded bytes to
// stdout. Statistics go to stderr. It is built entirely on the public
// spinal, spinal/channel, spinal/link, spinal/transport and spinal/sim
// packages.
//
// With -flows N > 1 the input is split into N datagrams carried as
// concurrent flows through one link.Session — shared frames, codec work
// fanned out across cores each round — and reassembled in order on
// stdout.
//
// With -scenario NAME no stdin is read: the session runs the named
// workload — a time-varying channel (burst, walk, trace:<file>, churn)
// or an impaired ARQ feedback path (feedback-delay, feedback-loss) —
// under the -policy rate policy and prints goodput/outage/retransmission
// statistics: the spinal code exercised against the changing channels,
// and the imperfect reverse channels, it was built for.
//
// With -faults SPEC a deterministic fault injector attacks the wire in
// either mode: frames and acks are reordered, duplicated, truncated,
// bit-flipped and blacked out per the spec, and the stderr statistics
// report what was injected. The link degrades; it does not fail.
//
// With -loadgen ADDR no stdin is read either: spinalcat becomes a load
// generator against a running spinald, driving -flows concurrent flows
// of -size random bytes over one UDP socket with bounded per-flow
// retries, verifying every delivered checksum, and printing the
// aggregate goodput. It exits nonzero if any flow fails, corrupts, or
// nothing is delivered. -weight stamps each submission's scheduling
// weight on the wire (honored by a spinald running -sched dwfq).
//
// With -fetch the stdin pipe runs through spinal/transport instead of a
// static flow split: the input streams as a pipeline of 1 KiB link
// segments, each sent once as one link flow, with the window of segments
// in flight opening as segments are delivered and RTT estimated from ack
// telemetry. The stderr statistics add the transport's view — SRTT, RTO,
// peak window.
//
// With -code SPEC the session runs a different channel code behind the
// same link machinery (spinal/code, link.WithCode): spinal (default),
// raptor, strider, turbo, ldpc or ldpc:RATE with RATE one of 1/2, 2/3,
// 3/4, 5/6 — the paper's §8 bake-off from the command line, in either
// pipe or scenario mode.
//
//	echo "hello" | spinalcat -snr 8
//	spinalcat -snr 5 -b 16 < somefile > copy && cmp somefile copy
//	spinalcat -snr 10 -flows 8 < somefile > copy && cmp somefile copy
//	spinalcat -scenario burst -policy tracking
//	spinalcat -scenario trace:internal/channel/testdata/fade.trace -flows 24
//	spinalcat -scenario feedback-loss -policy tracking
//	spinalcat -snr 8 -flows 4 -faults reorder=4,dup=0.05,corrupt=0.01 < somefile > copy
//	spinalcat -scenario churn -faults chaos=2
//	spinalcat -snr 12 -code raptor < somefile > copy && cmp somefile copy
//	spinalcat -scenario burst -code ldpc:3/4
//	spinalcat -loadgen 127.0.0.1:7447 -flows 256 -size 64
//	spinalcat -loadgen 127.0.0.1:7447 -flows 32 -weight 4
//	spinalcat -fetch -snr 10 < somefile > copy && cmp somefile copy
//	spinalcat -scenario mice-elephants -sched dwfq
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"spinal"
	"spinal/channel"
	"spinal/code"
	"spinal/daemon"
	"spinal/link"
	"spinal/sim"
	"spinal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spinalcat: ")
	var (
		snrDB    = flag.Float64("snr", 10, "simulated AWGN SNR in dB")
		beam     = flag.Int("b", 256, "decoder beam width B")
		seed     = flag.Int64("seed", 1, "channel noise seed")
		flows    = flag.Int("flows", 1, "split the input across N concurrent link-session flows")
		scenario = flag.String("scenario", "", "run a named scenario instead of piping stdin: burst, walk, trace:<file>, churn, feedback-delay, feedback-loss, chaos, chaos-feedback, mice-elephants, fetch-cubic")
		policy   = flag.String("policy", "tracking", "scenario rate policy: fixed[:n], capacity[:db], tracking[:db]")
		faults   = flag.String("faults", "", "adversarial-link fault spec, e.g. reorder=4,dup=0.05,corrupt=0.01 or chaos=2 (see README)")
		codeSpec = flag.String("code", "spinal", "channel code: spinal, raptor, strider, turbo, ldpc or ldpc:RATE")
		loadgen  = flag.String("loadgen", "", "drive a running spinald at this UDP address with -flows concurrent flows of -size bytes")
		size     = flag.Int("size", 64, "loadgen payload bytes per flow")
		weight   = flag.Int("weight", 0, "loadgen submission scheduling weight (0/1 = default share; needs a dwfq spinald)")
		fetch    = flag.Bool("fetch", false, "pipe stdin through the congestion-aware transport fetcher instead of a static flow split")
		sched    = flag.String("sched", "", "scenario admission scheduler: rr (default) or dwfq")
	)
	flag.Parse()

	if *loadgen != "" {
		if *weight < 0 || *weight > 255 {
			log.Fatalf("-weight %d out of range (wire carries 0..255)", *weight)
		}
		runLoadgen(*loadgen, *flows, *size, *seed, uint8(*weight))
		return
	}

	fc, err := parseFaults(*faults)
	if err != nil {
		log.Fatal(err)
	}

	if *scenario != "" {
		nFlows := 0 // 0 ⇒ MeasureScenario's default population
		if flagSet("flows") {
			nFlows = *flows
		}
		runScenario(*scenario, *policy, *codeSpec, *sched, nFlows, *beam, *seed, flagSet("b"), fc)
		return
	}

	data, err := io.ReadAll(os.Stdin)
	if err != nil {
		log.Fatal(err)
	}

	p := spinal.DefaultParams()
	p.B = *beam
	if *fetch {
		runFetch(data, p, *codeSpec, *snrDB, *seed, fc)
		return
	}
	if *flows < 1 {
		*flows = 1
	}
	runFlows(data, p, *codeSpec, *snrDB, *seed, *flows, fc)
}

// parseFaults parses the -faults grammar: comma-separated key=value
// pairs mapping onto link.FaultConfig. Probabilities are per share /
// per ack in [0,1]. Keys: reorder (a value ≥ 1 is a depth and implies
// probability 0.15; < 1 is the probability), depth, dup, trunc,
// corrupt, bits, blackout, blackoutlen, ackreorder, ackdup, acktrunc,
// ackcorrupt, seed — and chaos[=scale], the golden chaos-feedback mix
// scaled by the given factor, which later keys may then override.
// depth, bits and blackoutlen are whole numbers in [0, maxFaultCount]
// (0 keeps the injector's default). seed is a decimal int64, taken
// exactly, or a whole number of magnitude at most 2⁵³ in float form
// (seed=1e3). NaN, infinities and out-of-range values are rejected.
func parseFaults(spec string) (*link.FaultConfig, error) {
	if spec == "" {
		return nil, nil
	}
	var fc link.FaultConfig
	for _, field := range strings.Split(spec, ",") {
		key, val, hasVal := strings.Cut(strings.TrimSpace(field), "=")
		num := 0.0
		if hasVal {
			var err error
			num, err = strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("-faults %s: %v", field, err)
			}
			if math.IsNaN(num) || math.IsInf(num, 0) {
				return nil, fmt.Errorf("-faults %s: not a finite number", field)
			}
		}
		prob := func() (float64, error) {
			if num < 0 || num > 1 {
				return 0, fmt.Errorf("-faults %s: probability outside [0, 1]", field)
			}
			return num, nil
		}
		count := func() (int, error) {
			if num < 0 || num > maxFaultCount || num != math.Trunc(num) {
				return 0, fmt.Errorf("-faults %s: want a whole number in [0, %d]", field, maxFaultCount)
			}
			return int(num), nil
		}
		var err error
		switch key {
		case "chaos":
			scale := 1.0
			if hasVal {
				scale = num
			}
			if scale < 0 {
				return nil, fmt.Errorf("-faults %s: negative scale", field)
			}
			fc = sim.ChaosFaults(true).Scale(scale)
		case "reorder":
			if num >= 1 {
				fc.ReorderDepth, err = count()
				if fc.FrameReorder == 0 {
					fc.FrameReorder = 0.15
				}
			} else {
				fc.FrameReorder, err = prob()
			}
		case "depth":
			fc.ReorderDepth, err = count()
		case "dup":
			fc.FrameDup, err = prob()
		case "trunc":
			fc.FrameTruncate, err = prob()
		case "corrupt":
			fc.FrameCorrupt, err = prob()
		case "bits":
			fc.CorruptBits, err = count()
		case "blackout":
			fc.Blackout, err = prob()
		case "blackoutlen":
			fc.BlackoutRounds, err = count()
		case "ackreorder":
			fc.AckReorder, err = prob()
		case "ackdup":
			fc.AckDup, err = prob()
		case "acktrunc":
			fc.AckTruncate, err = prob()
		case "ackcorrupt":
			fc.AckCorrupt, err = prob()
		case "seed":
			// Read as an integer first: a float64 holds every integer
			// only up to 2⁵³, and rounds larger seeds onto their
			// neighbours.
			if s, perr := strconv.ParseInt(val, 10, 64); perr == nil {
				fc.Seed = s
			} else if math.Abs(num) > 1<<53 || num != math.Trunc(num) {
				return nil, fmt.Errorf("-faults %s: want an int64, or a whole number of magnitude at most 2^53", field)
			} else {
				fc.Seed = int64(num)
			}
		default:
			return nil, fmt.Errorf("-faults: unknown key %q (want chaos, reorder, depth, dup, trunc, corrupt, bits, blackout, blackoutlen, ackreorder, ackdup, acktrunc, ackcorrupt, seed)", key)
		}
		if err != nil {
			return nil, err
		}
	}
	return &fc, nil
}

// maxFaultCount bounds the -faults counts (depth, bits, blackoutlen): a
// reorder depth or blackout of 1 024 rounds and 1 024 bit flips per
// corrupted frame are far past any useful attack, and a larger count
// only makes each fault cost more.
const maxFaultCount = 1024

// runLoadgen drives a running spinald through the public daemon package
// and exits nonzero unless every flow resolved and verified. The
// submission tag is derived from -seed, so repeated runs against one
// daemon measure fresh flows instead of replaying its idempotence cache.
func runLoadgen(addr string, flows, size int, seed int64, weight uint8) {
	if flows < 1 {
		flows = 1
	}
	res, err := daemon.RunLoad(daemon.LoadConfig{
		Addr:   addr,
		Flows:  flows,
		Size:   size,
		Seq:    uint32(seed),
		Seed:   seed,
		Weight: weight,
		// A race-instrumented daemon on a loaded CI runner can take
		// seconds to serve a big burst; give each flow a minute of
		// bounded patience rather than the default 5 s.
		Timeout: time.Second,
		Retries: 60,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	if res.Failed > 0 || res.Corrupted > 0 || res.Delivered == 0 {
		log.Fatalf("loadgen failed: %d/%d delivered, %d failed, %d corrupted",
			res.Delivered, res.Flows, res.Failed, res.Corrupted)
	}
}

// flagSet reports whether the named flag appeared on the command line,
// so scenario mode can tell an explicit -flows 1 or -b from the pipe
// mode's defaults.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// runScenario drives sim.MeasureScenario and prints its statistics.
func runScenario(scenario, policy, codeSpec, sched string, flows, beam int, seed int64, beamExplicit bool, fc *link.FaultConfig) {
	p := spinal.DefaultParams()
	if beamExplicit {
		p.B = beam
	} else {
		p.B = 16 // quick-scale beam: scenario statistics, not peak rate
	}
	cfg := sim.ScenarioConfig{
		Params:    p,
		Scenario:  scenario,
		Policy:    policy,
		Flows:     flows,
		Seed:      seed,
		Faults:    fc,
		Scheduler: sched,
	}
	if flagSet("code") {
		cfg.Code = codeSpec
	}
	res, err := sim.MeasureScenario(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	codeName := cfg.Code
	if codeName == "" {
		codeName = "spinal"
	}
	fmt.Printf("  delivered %d bytes over %d flows in %d engine rounds (%s, B=%d, seed %d)\n",
		res.Bytes, res.Flows, res.Rounds, codeName, p.B, seed)
}

// runFetch streams data through the transport fetcher: 1 KiB segments
// pipelined under a growing window over the simulated AWGN medium, RTT
// estimated from the link's ack telemetry.
func runFetch(data []byte, p spinal.Params, codeSpec string, snrDB float64, seed int64, fc *link.FaultConfig) {
	opts := []link.Option{
		link.WithChannel(channel.NewAWGN(snrDB, seed)),
		link.WithRatePolicy(link.CapacityRate{SNREstimateDB: snrDB}),
		link.WithSeed(seed),
	}
	if fc != nil {
		opts = append(opts, link.WithFaults(*fc))
	}
	if flagSet("code") {
		c, err := code.Parse(codeSpec, p)
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, link.WithCode(c))
	}
	res, err := transport.Fetch(context.Background(), data, transport.Config{
		Params:  p,
		Options: opts,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := os.Stdout.Write(res.Payload); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr,
		"spinalcat: fetched %d bytes as %d segments in %d rounds (%.2f bits/symbol) at %.1f dB\n",
		len(res.Payload), res.Segments, res.Steps, res.Goodput, snrDB)
	fmt.Fprintf(os.Stderr,
		"spinalcat: transport: srtt %.1f rounds, rto %d, peak window %.1f\n",
		res.SRTT, res.RTO, res.CwndMax)
}

// runFlows splits data into n contiguous datagrams and drives them as
// concurrent flows through one link.Session.
func runFlows(data []byte, p spinal.Params, codeSpec string, snrDB float64, seed int64, n int, fc *link.FaultConfig) {
	var sessOpts []link.Option
	if fc != nil {
		sessOpts = append(sessOpts, link.WithFaults(*fc))
	}
	if flagSet("code") {
		c, err := code.Parse(codeSpec, p)
		if err != nil {
			log.Fatal(err)
		}
		sessOpts = append(sessOpts, link.WithCode(c))
	}
	s, err := link.NewSession(p, sessOpts...)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	chunk := (len(data) + n - 1) / n
	if chunk == 0 {
		chunk = 1
	}
	order := make(map[link.FlowID]int, n)
	parts := make([][]byte, n)
	for off, i := 0, 0; i < n; i++ {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		id, err := s.Send(data[off:end],
			link.WithChannel(channel.NewAWGN(snrDB, seed+int64(i))),
			link.WithRatePolicy(link.CapacityRate{SNREstimateDB: snrDB}))
		if err != nil {
			log.Fatal(err)
		}
		order[id] = i
		off = end
	}

	results, err := s.Drain(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	rounds := 0
	for _, r := range results {
		if r.Err != nil {
			log.Fatalf("flow %d failed: %v", r.ID, r.Err)
		}
		parts[order[r.ID]] = r.Datagram
		rounds = max(rounds, r.Stats.Frames)
	}
	t := s.Metrics().Totals
	for _, part := range parts {
		if _, err := os.Stdout.Write(part); err != nil {
			log.Fatal(err)
		}
	}
	if n == 1 {
		fmt.Fprintf(os.Stderr, "spinalcat: %d bytes, %d blocks, %d symbols (%.2f bits/symbol) at %.1f dB\n",
			len(data), t.Blocks, t.SymbolsSent,
			float64(len(data)*8)/float64(t.SymbolsSent), snrDB)
	} else {
		fmt.Fprintf(os.Stderr, "spinalcat: %d bytes over %d flows in %d shared frames, %d symbols (%.2f bits/symbol aggregate) at %.1f dB\n",
			len(data), n, rounds, t.SymbolsSent,
			float64(len(data)*8)/float64(t.SymbolsSent), snrDB)
	}
	if fc != nil {
		fmt.Fprintf(os.Stderr, "spinalcat: faults injected: %d frame, %d ack; %d corrupt batches rejected\n",
			t.Faults.Frames(), t.Faults.Acks(), t.BatchesRejected)
	}
}
